//! The catalog index: per-instance entries (sketch + signature posting
//! hashes + pinned [`InstanceSigMaps`]) in one lock-guarded slot arena,
//! and the two-stage search over it: [`CatalogIndex::prefilter`] ranks
//! every entry by sketch + signature overlap and picks the survivors, and
//! [`Survivors::compare`] runs the full comparison on them. An entry is
//! only ever built whole, by [`CatalogIndex::insert`], and never patched.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use ic_core::{Comparator, Error, InstanceSigMaps, SignatureConfig};
use ic_model::{FxHashMap, Instance, RelId, Sym};

use crate::sketch::{hash64, jaccard_estimate, Sketch};

/// Seed of the signature-posting hash family (disjoint from the sketch
/// family's).
const SIG_SEED: u64 = 0x1C5E_ACC4_5EED_0002;

/// The prefilter keeps every entry whose sketch Jaccard estimate is at
/// least this, even with no signature overlap.
const SKETCH_THRESHOLD: f64 = 0.5;

/// The prefilter keeps at least `OVERSAMPLE · k` entries by rank...
const OVERSAMPLE: usize = 4;

/// ...and at least this many, so a small `k` still compares a margin.
const MIN_CANDIDATES: usize = 32;

/// Whether a comparator built from `cfg` can consume the index's maps,
/// which are always built under the default config: the map-shaping
/// fields (`partial`, `max_signatures_per_tuple`) must agree with it.
fn compatible_with(cfg: &SignatureConfig) -> bool {
    let maps = SignatureConfig::default();
    cfg.partial == maps.partial && cfg.max_signatures_per_tuple == maps.max_signatures_per_tuple
}

/// Hashes one `(relation, mask, key)` signature bucket to a 64-bit posting
/// key by folding the SplitMix64 finalizer over its parts.
fn sig_hash(rel: RelId, mask: u128, key: &[Sym]) -> u64 {
    let mut h = hash64(SIG_SEED, u64::from(rel.0));
    h = hash64(h, mask as u64);
    h = hash64(h, (mask >> 64) as u64);
    for &Sym(s) in key {
        h = hash64(h, u64::from(s));
    }
    h
}

/// The sorted, deduplicated posting hashes of every signature bucket in
/// `maps`.
fn signature_hashes(maps: &InstanceSigMaps) -> Box<[u64]> {
    let mut hashes = Vec::new();
    maps.for_each_signature(|rel, mask, key, _count| {
        hashes.push(sig_hash(rel, mask, key));
    });
    hashes.sort_unstable();
    hashes.dedup();
    hashes.into_boxed_slice()
}

/// What the prefilter reads of one instance: its signature maps, the
/// posting hashes of their buckets, and its sketch. An indexed query
/// lends its entry's summary instead of building one.
#[derive(Debug)]
struct Summary {
    maps: Arc<InstanceSigMaps>,
    sig_hashes: Box<[u64]>,
    sketch: Sketch,
}

impl Summary {
    fn new(maps: InstanceSigMaps, sketch: Sketch) -> Self {
        Self {
            sig_hashes: signature_hashes(&maps),
            maps: Arc::new(maps),
            sketch,
        }
    }
}

/// One indexed instance: the name, the pinned `Arc<Instance>` whose
/// pointer identity keys invalidation (the same discipline as ic-serve's
/// `SigMapCache`), and its summary.
#[derive(Debug)]
struct Entry {
    name: String,
    pin: Arc<Instance>,
    summary: Summary,
}

/// The index state behind the one lock: slot-addressed entries, the
/// name-ordered name → slot map, and the inverted posting map from
/// signature hash to occupying slots.
#[derive(Debug, Default)]
struct Arena {
    /// Slot-addressed entries; `None` marks a freed slot.
    entries: Vec<Option<Entry>>,
    /// Name → slot in name order, so an entry's position in it is its
    /// name ordinal.
    by_name: BTreeMap<String, u32>,
    free: Vec<u32>,
    postings: FxHashMap<u64, Vec<u32>>,
}

impl Arena {
    fn entry(&self, slot: u32) -> &Entry {
        self.entries[slot as usize]
            .as_ref()
            .expect("by_name and postings name live slots")
    }

    fn get(&self, name: &str) -> Option<&Entry> {
        self.by_name.get(name).map(|&slot| self.entry(slot))
    }

    /// The entry indexed under `query`'s name, if it pins `query` itself.
    fn pinned(&self, query: &Instance) -> Option<&Entry> {
        self.get(query.name())
            .filter(|e| std::ptr::eq(Arc::as_ptr(&e.pin), query))
    }

    fn remove_slot(&mut self, slot: u32) -> Entry {
        let entry = self.entries[slot as usize].take().expect("slot is live");
        self.by_name.remove(&entry.name);
        for h in entry.summary.sig_hashes.iter() {
            if let Some(slots) = self.postings.get_mut(h) {
                slots.retain(|&s| s != slot);
                if slots.is_empty() {
                    self.postings.remove(h);
                }
            }
        }
        self.free.push(slot);
        entry
    }

    fn insert_entry(&mut self, entry: Entry) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            (self.entries.len() - 1) as u32
        });
        for h in entry.summary.sig_hashes.iter() {
            self.postings.entry(*h).or_default().push(slot);
        }
        self.by_name.insert(entry.name.clone(), slot);
        self.entries[slot as usize] = Some(entry);
    }
}

/// One entry's prefilter rank. The derived order compares the fields top
/// to bottom, which is the rank order `(overlap desc, sketch desc, name
/// asc)`: integer compares only. Name ordinals are unique, so `slot` never
/// decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank {
    /// Distinct signature buckets shared with the query.
    overlap: Reverse<u32>,
    /// Agreeing minhash slots.
    matches: Reverse<u32>,
    ordinal: u32,
    slot: u32,
}

/// Lifetime counters of one [`CatalogIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Entries currently indexed.
    pub entries: u64,
    /// New names indexed.
    pub inserts: u64,
    /// Entries rebuilt because the pinned `Arc<Instance>` was replaced.
    pub replacements: u64,
    /// Entries dropped (name no longer live).
    pub removals: u64,
    /// `insert` calls that found the pin unchanged and did nothing.
    pub unchanged: u64,
}

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Catalog name of the matched instance.
    pub name: String,
    /// The signature-algorithm similarity score — bit-identical to what a
    /// direct [`Comparator::compare`] of the same pair returns.
    pub score: f64,
    /// Matched tuple pairs in the witnessing match.
    pub pairs: usize,
}

/// Outcome of one [`CatalogIndex::topk`].
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The top-k hits, ordered by `(score desc, name asc)`.
    pub hits: Vec<SearchHit>,
    /// Survivors that ran the full comparison.
    pub compared: usize,
    /// Entries in the index when the search ran.
    pub total: usize,
}

/// One survivor of the prefilter: an owned pin and its maps, so the full
/// comparison needs no hold on the index.
#[derive(Debug)]
struct Survivor {
    name: String,
    pin: Arc<Instance>,
    maps: Arc<InstanceSigMaps>,
}

/// The entries [`CatalogIndex::prefilter`] chose for the full comparison,
/// in prefilter rank order, with owned pins and maps: the index may change
/// (or be dropped) before [`Survivors::compare`] runs without changing its
/// answer.
#[derive(Debug)]
pub struct Survivors {
    query_maps: Arc<InstanceSigMaps>,
    survivors: Vec<Survivor>,
    k: usize,
    total: usize,
    started: Instant,
}

impl Survivors {
    /// Stage 3 of [`CatalogIndex::topk`]: the full signature comparison of
    /// `query` (the instance [`CatalogIndex::prefilter`] ran for) with
    /// every survivor, seeded with the prebuilt maps, then the top `k` by
    /// `(score desc, name asc)`.
    ///
    /// `deadline`, if any, is checked **between** comparisons (each one
    /// runs unbudgeted, so every returned score is exact); expiry returns
    /// [`Error::Budget`].
    pub fn compare(
        self,
        query: &Instance,
        cmp: &Comparator<'_>,
        deadline: Option<Instant>,
    ) -> Result<SearchOutcome, Error> {
        let compared = self.survivors.len();
        let mut hits: Vec<SearchHit> = Vec::with_capacity(compared);
        for s in self.survivors {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(Error::Budget {
                        budget: None,
                        elapsed: self.started.elapsed(),
                    });
                }
            }
            let out =
                cmp.signature_with_maps(query, &s.pin, Some(&self.query_maps), Some(&s.maps))?;
            hits.push(SearchHit {
                name: s.name,
                score: out.best.score(),
                pairs: out.best.pairs.len(),
            });
        }
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.name.cmp(&b.name))
        });
        hits.truncate(self.k);
        Ok(SearchOutcome {
            hits,
            compared,
            total: self.total,
        })
    }
}

/// A catalog-level similarity index.
///
/// Entries live in one slot arena behind one `RwLock`: inserts and
/// removals take it exclusively for a swap (entry maps are built outside
/// it), and a search's prefilter takes it shared. Invalidation is by
/// pointer identity: an entry is valid for a name exactly while the
/// catalog still maps that name to the same `Arc<Instance>` (the
/// `SigMapCache` pin discipline): [`Self::insert`] with the same `Arc` is
/// a no-op, with another `Arc` a rebuild of the whole entry, and a caller
/// that follows a changing catalog calls it (or [`Self::remove`]) only for
/// the names whose pin changed. These two are the only ways to change the
/// index.
///
/// Entry maps are built under [`SignatureConfig::default`], so a search
/// needs a comparator of the same map shape (complete matches, the default
/// signature cap); its mode and scoring may differ.
///
/// A search is two stages. [`Self::prefilter`] scores every entry under
/// one read lock and clones pins and maps for the survivors only;
/// [`Survivors::compare`] then runs the full comparisons without the lock.
/// [`Self::topk`] is exactly those two calls. The prefilter only chooses
/// *which* entries run the full comparison: every returned score is the
/// exact signature-algorithm score (bit-identical at any thread count),
/// and ties order deterministically by name.
#[derive(Debug, Default)]
pub struct CatalogIndex {
    arena: RwLock<Arena>,
    inserts: AtomicU64,
    replacements: AtomicU64,
    removals: AtomicU64,
    unchanged: AtomicU64,
}

impl CatalogIndex {
    // The arena guards recover from poisoning. Sound because the arena is
    // consistent at all times: entries are swapped in/out whole, and
    // posting lists are repaired in the same critical section as the
    // entry map.
    fn read(&self) -> RwLockReadGuard<'_, Arena> {
        self.arena.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Arena> {
        self.arena.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Builds the entry for `(name, pin)` — outside the lock, since map
    /// construction is the expensive part.
    fn build_entry(name: &str, pin: &Arc<Instance>) -> Entry {
        let maps = InstanceSigMaps::build(pin, &SignatureConfig::default());
        Entry {
            name: name.to_string(),
            pin: Arc::clone(pin),
            summary: Summary::new(maps, Sketch::build(pin)),
        }
    }

    /// Indexes `name` → `pin`, replacing any previous entry whose pin
    /// differs. Returns `true` if the index changed (no-op when the same
    /// `Arc` is already indexed).
    pub fn insert(&self, name: &str, pin: &Arc<Instance>) -> bool {
        if self
            .read()
            .get(name)
            .is_some_and(|e| Arc::ptr_eq(&e.pin, pin))
        {
            self.unchanged.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let entry = Self::build_entry(name, pin);
        let mut arena = self.write();
        if let Some(&slot) = arena.by_name.get(name) {
            // Re-check under the lock: a racing insert may have landed.
            if Arc::ptr_eq(&arena.entry(slot).pin, pin) {
                self.unchanged.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            arena.remove_slot(slot);
            self.replacements.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        arena.insert_entry(entry);
        true
    }

    /// Drops `name` from the index. Returns `true` if it was indexed.
    pub fn remove(&self, name: &str) -> bool {
        let mut arena = self.write();
        let Some(&slot) = arena.by_name.get(name) else {
            return false;
        };
        arena.remove_slot(slot);
        self.removals.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.read().by_name.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            entries: self.len() as u64,
            inserts: self.inserts.load(Ordering::Relaxed),
            replacements: self.replacements.load(Ordering::Relaxed),
            removals: self.removals.load(Ordering::Relaxed),
            unchanged: self.unchanged.load(Ordering::Relaxed),
        }
    }

    /// The prebuilt signature maps of `name`, if indexed **and** still
    /// pinned to `pin` (pointer identity). Lets callers reuse the index's
    /// maps for their own seeded comparisons.
    pub fn entry_maps(&self, name: &str, pin: &Arc<Instance>) -> Option<Arc<InstanceSigMaps>> {
        let arena = self.read();
        let entry = arena.get(name)?;
        Arc::ptr_eq(&entry.pin, pin).then(|| Arc::clone(&entry.summary.maps))
    }

    /// Top-k most similar indexed instances to `query`: exactly
    /// [`Self::prefilter`] followed by [`Survivors::compare`].
    ///
    /// Three stages: (1) cheap prefilter scores for **every** entry —
    /// signature overlap via the inverted postings plus the minhash domain
    /// estimate; (2) survivor selection — entries with signature overlap
    /// or a sketch estimate ≥ 0.5, padded to at least `max(4·k, 32)` by
    /// prefilter rank `(overlap desc, sketch desc, name asc)`; (3) the
    /// full signature comparison on survivors only, seeded with the
    /// index's prebuilt maps.
    ///
    /// `deadline`, if any, is checked **between** survivor comparisons;
    /// each comparison runs unbudgeted, so every returned score is exact,
    /// and expiry returns [`Error::Budget`].
    ///
    /// Scores are bit-identical to a brute-force [`Comparator::compare`]
    /// loop at any thread count (the seeded-maps contract), and the final
    /// order is deterministic: `(score desc, name asc)`. With `k ≥ len()`
    /// every entry survives, so the result *is* the brute-force ranking.
    ///
    /// # Panics
    /// Panics if `cmp`'s map-shaping config (`partial`,
    /// `max_signatures_per_tuple`) differs from the default the index
    /// builds its maps under (the [`ic_core::signature_match_seeded`]
    /// seeding contract).
    pub fn topk(
        &self,
        query: &Instance,
        k: usize,
        cmp: &Comparator<'_>,
        deadline: Option<Instant>,
    ) -> Result<SearchOutcome, Error> {
        self.prefilter(query, k, cmp)?.compare(query, cmp, deadline)
    }

    /// Stages 1 and 2 of [`Self::topk`], under one read lock: rank every
    /// entry into a compact integer record, keep every entry with overlap
    /// or a sketch estimate at the threshold, and fill the rest of the
    /// floor by partial selection, not a sort. Only survivors have their
    /// name, pin and maps cloned. When `query` is itself indexed (the same
    /// `Arc` under its own name), its entry's maps, posting hashes and
    /// sketch are reused instead of rebuilt.
    ///
    /// Records an `index.prefilter` span with `index.entries` and
    /// `index.survivors` counters into the active observation.
    ///
    /// # Panics
    /// As [`Self::topk`].
    pub fn prefilter(
        &self,
        query: &Instance,
        k: usize,
        cmp: &Comparator<'_>,
    ) -> Result<Survivors, Error> {
        assert!(
            compatible_with(cmp.signature_config()),
            "CatalogIndex::prefilter: comparator's partial/max_signatures_per_tuple \
             disagree with the index's map-shaping config"
        );
        let started = Instant::now();
        let _span = ic_obs::span("index.prefilter");
        // The comparator rejects a query of another schema when it builds
        // its maps; an indexed query skips that build, so check here.
        let expected = cmp.catalog().schema().len();
        if query.num_relations() != expected {
            return Err(Error::SchemaMismatch {
                expected,
                found: query.num_relations(),
            });
        }
        let arena = self.read();
        let built;
        let probe = match arena.pinned(query) {
            Some(entry) => &entry.summary,
            None => {
                built = Summary::new(cmp.build_maps(query)?, Sketch::build(query));
                &built
            }
        };

        // Stage 1: rank every entry without cloning anything.
        let mut overlap = vec![0u32; arena.entries.len()];
        for h in probe.sig_hashes.iter() {
            for &slot in arena.postings.get(h).into_iter().flatten() {
                overlap[slot as usize] += 1;
            }
        }
        let mut kept: Vec<Rank> = Vec::new();
        let mut rest: Vec<Rank> = Vec::with_capacity(arena.by_name.len());
        for (ordinal, &slot) in arena.by_name.values().enumerate() {
            let matches = probe
                .sketch
                .matching_slots(&arena.entry(slot).summary.sketch);
            let rank = Rank {
                overlap: Reverse(overlap[slot as usize]),
                matches: Reverse(matches as u32),
                ordinal: ordinal as u32,
                slot,
            };
            if rank.overlap.0 > 0 || jaccard_estimate(matches) >= SKETCH_THRESHOLD {
                kept.push(rank);
            } else {
                rest.push(rank);
            }
        }
        let total = kept.len() + rest.len();

        // Stage 2: the kept entries lead the rank order, so the survivors
        // are they plus the best of the rest up to the floor.
        let floor = k.saturating_mul(OVERSAMPLE).max(MIN_CANDIDATES).min(total);
        if let Some(fill) = floor.checked_sub(kept.len()).filter(|&n| n > 0) {
            rest.select_nth_unstable(fill - 1);
            kept.extend_from_slice(&rest[..fill]);
        }
        kept.sort_unstable();
        let survivors: Vec<Survivor> = kept
            .iter()
            .map(|r| {
                let entry = arena.entry(r.slot);
                Survivor {
                    name: entry.name.clone(),
                    pin: Arc::clone(&entry.pin),
                    maps: Arc::clone(&entry.summary.maps),
                }
            })
            .collect();
        ic_obs::counter("index.entries", total as u64);
        ic_obs::counter("index.survivors", survivors.len() as u64);
        Ok(Survivors {
            query_maps: Arc::clone(&probe.maps),
            survivors,
            k,
            total,
            started,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_datagen::{generate_lake, LakeParams};
    use ic_model::{Catalog, Schema};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Stages 1–3 as the index ran them before ranking in place: clone
    /// every entry, fully sort all of them by `(overlap desc, sketch desc,
    /// name asc)`, keep the prefix that passes the filter or lies under the
    /// floor, and compare it with freshly built query maps. Returns the
    /// survivor names in rank order, how many of them passed the filter
    /// (the rest fill the floor), and the outcome.
    fn reference_topk(
        index: &CatalogIndex,
        query: &Instance,
        k: usize,
        cmp: &Comparator<'_>,
    ) -> (Vec<String>, usize, SearchOutcome) {
        struct Candidate {
            name: String,
            pin: Arc<Instance>,
            maps: Arc<InstanceSigMaps>,
            overlap: u32,
            sketch_sim: f64,
        }
        let query_maps = cmp.build_maps(query).unwrap();
        let query_hashes = signature_hashes(&query_maps);
        let query_sketch = Sketch::build(query);
        let arena = index.read();
        let mut overlap: FxHashMap<u32, u32> = FxHashMap::default();
        for h in query_hashes.iter() {
            if let Some(slots) = arena.postings.get(h) {
                for &slot in slots {
                    *overlap.entry(slot).or_insert(0) += 1;
                }
            }
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for (slot, entry) in arena.entries.iter().enumerate() {
            let Some(entry) = entry else { continue };
            candidates.push(Candidate {
                name: entry.name.clone(),
                pin: Arc::clone(&entry.pin),
                maps: Arc::clone(&entry.summary.maps),
                overlap: overlap.get(&(slot as u32)).copied().unwrap_or(0),
                sketch_sim: query_sketch.domain_jaccard(&entry.summary.sketch),
            });
        }
        drop(arena);
        let total = candidates.len();
        candidates.sort_by(|a, b| {
            b.overlap
                .cmp(&a.overlap)
                .then_with(|| b.sketch_sim.total_cmp(&a.sketch_sim))
                .then_with(|| a.name.cmp(&b.name))
        });
        let keep_floor = k.saturating_mul(OVERSAMPLE).max(MIN_CANDIDATES).min(total);
        let passes = |c: &Candidate| c.overlap > 0 || c.sketch_sim >= SKETCH_THRESHOLD;
        let passed = candidates.iter().filter(|c| passes(c)).count();
        let survivors = candidates
            .iter()
            .enumerate()
            .take_while(|(i, c)| *i < keep_floor || passes(c))
            .count();
        candidates.truncate(survivors);
        let mut hits: Vec<SearchHit> = candidates
            .iter()
            .map(|c| {
                let out = cmp
                    .signature_with_maps(query, &c.pin, Some(&query_maps), Some(&c.maps))
                    .unwrap();
                SearchHit {
                    name: c.name.clone(),
                    score: out.best.score(),
                    pairs: out.best.pairs.len(),
                }
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.name.cmp(&b.name))
        });
        hits.truncate(k);
        let names = candidates.into_iter().map(|c| c.name).collect();
        let outcome = SearchOutcome {
            hits,
            compared: survivors,
            total,
        };
        (names, passed, outcome)
    }

    fn bits(out: &SearchOutcome) -> Vec<(String, u64, usize)> {
        out.hits
            .iter()
            .map(|h| (h.name.clone(), h.score.to_bits(), h.pairs))
            .collect()
    }

    /// Runs the selection against the reference for `query` at every `k`
    /// of the grid. Returns how many cases selected partially: entries
    /// below the filter filled the floor and others were cut.
    fn assert_matches_reference(
        index: &CatalogIndex,
        query: &Instance,
        cmp: &Comparator<'_>,
    ) -> usize {
        let n = index.len();
        let mut partial = 0;
        for k in [0, 1, 10, n - 1, n] {
            let case = format!("query {} k={k}", query.name());
            let (names, passed, want) = reference_topk(index, query, k, cmp);
            let survivors = index.prefilter(query, k, cmp).unwrap();
            let got: Vec<&str> = survivors
                .survivors
                .iter()
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(got, names, "survivors, {case}");
            assert_eq!(survivors.total, want.total, "{case}");
            let out = index.topk(query, k, cmp, None).unwrap();
            assert_eq!(
                (out.compared, out.total),
                (want.compared, want.total),
                "{case}"
            );
            assert_eq!(bits(&out), bits(&want), "hits, {case}");
            if passed < want.compared && want.compared < want.total {
                partial += 1;
            }
        }
        partial
    }

    /// The queries of one oracle run: an indexed instance (its entry's
    /// summary is reused), a copy of it under the same name but another
    /// `Arc` (built from scratch), and an unindexed name.
    fn queries(pins: &[Arc<Instance>]) -> Vec<Arc<Instance>> {
        let mut renamed = Instance::clone(&pins[1]);
        renamed.set_name("not-indexed");
        vec![
            Arc::clone(&pins[0]),
            Arc::new(Instance::clone(&pins[0])),
            Arc::new(renamed),
        ]
    }

    /// Many rank ties: the lake's clusters share no constants, so every
    /// query overlaps only its own cluster and the rest tie at zero. With
    /// 48 entries the floor (32, or 40 at `k` = 10) cuts some of them.
    #[test]
    fn selection_matches_full_sort_on_a_generated_lake() {
        let lake = generate_lake(&LakeParams {
            clusters: 12,
            versions_per_cluster: 4,
            rows: 5,
            arity: 3,
            ..LakeParams::default()
        });
        let pins: Vec<Arc<Instance>> = lake.instances.iter().cloned().map(Arc::new).collect();
        let index = CatalogIndex::default();
        // Reverse insertion, so slot order is not name order.
        for pin in pins.iter().rev() {
            index.insert(pin.name(), pin);
        }
        let cmp = Comparator::new(&lake.catalog).build().unwrap();
        let partial: usize = queries(&pins)
            .iter()
            .map(|query| assert_matches_reference(&index, query, &cmp))
            .sum();
        assert!(partial > 0, "no case selected partially");
    }

    /// Overlaps and sketch matches of every size: rows drawn from windows
    /// of six constants in a shared pool, with labeled nulls mixed in.
    /// Nearby windows overlap and distant ones are disjoint, so entries
    /// both pass and fail the filter.
    #[test]
    fn selection_matches_full_sort_on_shared_constants() {
        let mut cat = Catalog::new(Schema::single("R", &["a", "b", "c"]));
        let pool: Vec<_> = (0..24).map(|i| cat.konst(&format!("p{i}"))).collect();
        let mut pins = Vec::new();
        for i in 0..48usize {
            let mut inst = Instance::new(format!("s{:02}", (i * 7) % 48), &cat);
            let c = |x: usize| pool[(2 * (i % 12) + x % 6) % 24];
            for r in 0..2 + i % 3 {
                let last = if (i + r) % 4 == 0 {
                    cat.fresh_null()
                } else {
                    c(r * 3)
                };
                inst.insert(RelId(0), vec![c(i + r), c(i * r + 1), last]);
            }
            pins.push(Arc::new(inst));
        }
        // Reverse insertion, so ties in content are not in slot order.
        let index = CatalogIndex::default();
        for pin in pins.iter().rev() {
            index.insert(pin.name(), pin);
        }
        // Free a slot and refill it, so a reused slot serves a new name.
        assert!(index.remove(pins[3].name()));
        assert!(index.insert(pins[3].name(), &pins[3]));
        let cmp = Comparator::new(&cat).build().unwrap();
        let partial: usize = queries(&pins)
            .iter()
            .map(|query| assert_matches_reference(&index, query, &cmp))
            .sum();
        assert!(partial > 0, "no case selected partially");
    }

    /// Checks the arena against its entries: every posting names a live
    /// slot whose entry holds that hash, and names it once; every hash of
    /// a live entry is posted; `by_name` maps exactly the live slots, each
    /// under its entry's name; and the free list is exactly the dead slots.
    fn assert_arena_consistent(index: &CatalogIndex, case: &str) {
        let arena = index.read();
        let (live, dead): (Vec<u32>, Vec<u32>) =
            (0..arena.entries.len() as u32).partition(|&s| arena.entries[s as usize].is_some());
        let mut posted = 0;
        for (h, slots) in &arena.postings {
            let mut unique = slots.clone();
            unique.sort_unstable();
            unique.dedup();
            assert!(!slots.is_empty(), "empty posting list, {case}");
            assert_eq!(unique.len(), slots.len(), "slot posted twice, {case}");
            for &slot in slots {
                let entry = arena.entries[slot as usize].as_ref();
                assert!(
                    entry.is_some_and(|e| e.summary.sig_hashes.binary_search(h).is_ok()),
                    "posting of slot {slot} is dead or stale, {case}"
                );
            }
            posted += slots.len();
        }
        let hashes: usize = live
            .iter()
            .map(|&s| arena.entry(s).summary.sig_hashes.len())
            .sum();
        assert_eq!(posted, hashes, "unposted hash of a live entry, {case}");
        let mut named: Vec<u32> = arena.by_name.values().copied().collect();
        named.sort_unstable();
        assert_eq!(named, live, "by_name vs live slots, {case}");
        for (name, &slot) in &arena.by_name {
            assert_eq!(&arena.entry(slot).name, name, "{case}");
        }
        let mut free = arena.free.clone();
        free.sort_unstable();
        assert_eq!(free, dead, "free list vs dead slots, {case}");
    }

    /// `insert` and `remove`, the only mutators, keep the arena consistent
    /// under any mix of new inserts, replacements, unchanged inserts and
    /// removals, and leave an index that searches exactly like one built
    /// fresh from the same (name, pin) set. About 50 of the 60 names are
    /// live at a time, so the final searches select partially.
    #[test]
    fn any_insert_remove_sequence_keeps_the_arena_consistent() {
        const NAMES: usize = 60;
        let lake = generate_lake(&LakeParams {
            clusters: 15,
            versions_per_cluster: 4,
            rows: 5,
            arity: 3,
            ..LakeParams::default()
        });
        // Three pins per name, drawn from across the lake, so names share
        // contents and a replacement may change a cluster.
        let pool: Vec<[Arc<Instance>; 3]> = (0..NAMES)
            .map(|i| {
                std::array::from_fn(|v| {
                    let mut inst = lake.instances[(i + 17 * v) % lake.instances.len()].clone();
                    inst.set_name(format!("n{i:02}"));
                    Arc::new(inst)
                })
            })
            .collect();
        let cmp = Comparator::new(&lake.catalog).build().unwrap();
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let index = CatalogIndex::default();
            let mut live: Vec<Option<usize>> = vec![None; NAMES];
            let mut want = IndexStats::default();
            for step in 0..400 {
                let i = rng.random_range(0..NAMES);
                let name = pool[i][0].name();
                match live[i] {
                    None => {
                        let v = rng.random_range(0..3usize);
                        assert!(index.insert(name, &pool[i][v]));
                        live[i] = Some(v);
                        want.inserts += 1;
                    }
                    Some(v) => match rng.random_range(0..5) {
                        0 => {
                            assert!(index.remove(name));
                            live[i] = None;
                            want.removals += 1;
                        }
                        1 | 2 => {
                            assert!(!index.insert(name, &pool[i][v]));
                            want.unchanged += 1;
                        }
                        _ => {
                            let w = (v + rng.random_range(1..3usize)) % 3;
                            assert!(index.insert(name, &pool[i][w]));
                            live[i] = Some(w);
                            want.replacements += 1;
                        }
                    },
                }
                assert_arena_consistent(&index, &format!("seed {seed} step {step}"));
            }
            want.entries = live.iter().flatten().count() as u64;
            assert_eq!(index.stats(), want, "seed {seed}");

            let live: Vec<&Arc<Instance>> = live
                .iter()
                .enumerate()
                .filter_map(|(i, v)| v.map(|v| &pool[i][v]))
                .collect();
            let fresh = CatalogIndex::default();
            for pin in &live {
                fresh.insert(pin.name(), pin);
            }
            for query in &live {
                for k in [1, 10] {
                    let got = index.topk(query, k, &cmp, None).unwrap();
                    let want = fresh.topk(query, k, &cmp, None).unwrap();
                    let case = format!("seed {seed} query {} k={k}", query.name());
                    assert_eq!(
                        (got.compared, got.total),
                        (want.compared, want.total),
                        "{case}"
                    );
                    assert_eq!(bits(&got), bits(&want), "hits, {case}");
                }
            }
        }
    }

    #[test]
    fn topk_records_one_prefilter_span_with_its_counts() {
        let lake = generate_lake(&LakeParams {
            clusters: 12,
            rows: 5,
            ..LakeParams::default()
        });
        let pins: Vec<Arc<Instance>> = lake.instances.iter().cloned().map(Arc::new).collect();
        let index = CatalogIndex::default();
        for pin in &pins {
            index.insert(pin.name(), pin);
        }
        let cmp = Comparator::new(&lake.catalog).build().unwrap();
        let sink = Arc::new(ic_obs::MemorySink::new());
        let out = {
            let _obs = ic_obs::observe("search", Arc::clone(&sink) as Arc<dyn ic_obs::Sink>);
            index.topk(&pins[5], 1, &cmp, None).unwrap()
        };
        let report = sink.last().expect("one report");
        assert_eq!(report.find_span(&["index.prefilter"]).unwrap().count, 1);
        assert_eq!(report.counter("index.survivors"), Some(out.compared as u64));
        assert_eq!(report.counter("index.entries"), Some(out.total as u64));
        assert!(out.compared < out.total, "the prefilter must cut something");
        // The indexed query lent its entry's maps: nothing was built.
        assert!(report
            .find_span(&["index.prefilter", "signature.sigmap_build"])
            .is_none());
    }

    #[test]
    #[should_panic(expected = "map-shaping")]
    fn prefilter_rejects_a_comparator_of_another_map_shape() {
        let mut cat = Catalog::new(Schema::single("R", &["a"]));
        let mut inst = Instance::new("x", &cat);
        inst.insert(RelId(0), vec![cat.konst("v")]);
        let cmp = Comparator::new(&cat).partial(true).build().unwrap();
        let _ = CatalogIndex::default().prefilter(&inst, 1, &cmp);
    }

    #[test]
    fn a_poisoned_arena_stays_usable() {
        let mut cat = Catalog::new(Schema::single("R", &["a"]));
        let mut inst = Instance::new("x", &cat);
        inst.insert(RelId(0), vec![cat.konst("v")]);
        let pin = Arc::new(inst);
        let index = CatalogIndex::default();
        assert!(index.insert("x", &pin));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = index.arena.write().unwrap();
            panic!("poison the lock");
        }));
        assert!(index.arena.is_poisoned());
        assert_eq!(index.len(), 1);
        assert!(index.remove("x"));
        assert!(index.insert("x", &pin));
        assert!(index.entry_maps("x", &pin).is_some());
    }
}
