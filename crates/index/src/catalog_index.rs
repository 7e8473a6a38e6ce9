//! The catalog index: per-instance entries (sketch + signature posting
//! hashes + pinned [`InstanceSigMaps`]) in one lock-guarded slot arena,
//! and the two-stage search over it: [`CatalogIndex::prefilter`] ranks
//! the entries that share a signature bucket or a sketch fingerprint slot
//! with the query and picks the survivors, and [`Survivors::compare`]
//! scores them, certifying the ones that can match nothing and running
//! the full comparison on the rest. An entry is only ever built whole, by
//! [`CatalogIndex::insert`], and never patched.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use ic_core::{CandidateIndex, Comparator, Error, InstanceSigMaps, SignatureConfig};
use ic_model::{FxHashMap, Instance, RelId, Sym};

use crate::sketch::{fingerprints_meet, hash64, jaccard_estimate, Fingerprint, Sketch};

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

/// A query's tuples, indexed per relation by one [`CandidateIndex`] each,
/// to certify the entries it can match nothing of.
struct QueryTuples<'q> {
    query: &'q Instance,
    by_rel: Vec<CandidateIndex>,
}

impl<'q> QueryTuples<'q> {
    fn new(query: &'q Instance) -> Self {
        let by_rel = (0..query.num_relations())
            .map(|r| CandidateIndex::build(query.tuples(RelId(r as u16))))
            .collect();
        Self { query, by_rel }
    }

    /// Whether no tuple of `entry` is c-compatible (Def. 6.1: no attribute
    /// holds two distinct constants) with a tuple of the same relation of
    /// the query. A complete match pairs only c-compatible tuples
    /// (`MatchState::try_push_pair` rejects two distinct constants at one
    /// attribute), so then the full comparison matches nothing, in every
    /// mode. c-compatibility is symmetric, so probing the query's index
    /// with the entry's tuples is an exact test. An entry of another
    /// relation count is never certified: its full comparison fails with
    /// [`Error::SchemaMismatch`].
    fn match_nothing_of(&self, entry: &Instance) -> bool {
        entry.num_relations() == self.by_rel.len()
            && self.by_rel.iter().enumerate().all(|(r, index)| {
                entry
                    .tuples(RelId(r as u16))
                    .iter()
                    .all(|t| index.c_compatible_candidates(self.query, t).is_empty())
            })
    }
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
    fn new(maps: Arc<InstanceSigMaps>, sketch: Sketch) -> Self {
        Self {
            sig_hashes: signature_hashes(&maps),
            maps,
            sketch,
        }
    }
}

/// One indexed instance: the name, the pinned `Arc<Instance>` whose
/// pointer identity keys invalidation, and its summary.
#[derive(Debug)]
struct Entry {
    name: Box<str>,
    /// The name's first 8 bytes, big-endian and zero-padded: ordered as
    /// the names are, up to ties. It sits beside the fields the prefilter
    /// reads anyway, so ranking an entry does not read its name.
    name_head: u64,
    pin: Arc<Instance>,
    summary: Summary,
}

/// The index state behind the one lock: slot-addressed entries and their
/// sketch fingerprints, the name-ordered name → slot map, and the
/// inverted posting map from signature hash to occupying slots.
#[derive(Debug, Default)]
struct Arena {
    /// Slot-addressed entries; `None` marks a freed slot.
    entries: Vec<Option<Entry>>,
    /// Slot-addressed fingerprints of the entries' sketches, one
    /// contiguous row per slot, so the prefilter scans them without
    /// touching an entry. A freed slot keeps its stale row until the slot
    /// is reused.
    fingerprints: Vec<Fingerprint>,
    /// Name → slot in name order.
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
        self.by_name.remove(&*entry.name);
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
        let fingerprint = entry.summary.sketch.fingerprint();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.fingerprints[slot as usize] = fingerprint;
                slot
            }
            None => {
                self.entries.push(None);
                self.fingerprints.push(fingerprint);
                (self.entries.len() - 1) as u32
            }
        };
        for h in entry.summary.sig_hashes.iter() {
            self.postings.entry(*h).or_default().push(slot);
        }
        self.by_name.insert(entry.name.to_string(), slot);
        self.entries[slot as usize] = Some(entry);
    }
}

/// One entry's prefilter rank. The derived order compares the fields top
/// to bottom, which is the rank order `(overlap desc, sketch desc, name
/// asc)`: the name head decides most name ties with one integer compare.
/// Names are unique, so `slot` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank<'a> {
    /// Distinct signature buckets shared with the query.
    overlap: Reverse<u32>,
    /// Agreeing minhash slots.
    matches: Reverse<u32>,
    name_head: u64,
    name: &'a str,
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

/// Outcome of one [`CatalogIndex::topk`]. The prefilter's survivors are
/// `compared + certified`.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The top-k hits, ordered by `(score desc, name asc)`.
    pub hits: Vec<SearchHit>,
    /// Survivors that ran the full comparison.
    pub compared: usize,
    /// Survivors certified to match nothing: no tuple pair with the query
    /// is c-compatible, so each got the empty match's score without a full
    /// comparison.
    pub certified: usize,
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
    /// Stage 3 of [`CatalogIndex::topk`]: scores `query` (the instance
    /// [`CatalogIndex::prefilter`] ran for) against every survivor, then
    /// keeps the top `k` by `(score desc, name asc)`.
    ///
    /// A survivor none of whose tuples is c-compatible with a tuple of the
    /// query is certified: the full comparison would match nothing, so it
    /// gets the empty match's hit (0 pairs; score 1.0 when neither instance
    /// holds a cell, else 0.0) and counts in `certified` and in the
    /// `index.certified_zero` counter. The test probes one
    /// [`CandidateIndex`] per relation over the query's tuples, built once
    /// per call. Every other survivor runs the full signature comparison,
    /// seeded with the prebuilt maps, and counts in `compared`. Either way
    /// the hit is bit-identical to the full comparison's.
    ///
    /// `deadline`, if any, is checked before every survivor (each full
    /// comparison runs unbudgeted, so every returned score is exact);
    /// expiry returns [`Error::Budget`].
    ///
    /// # Panics
    /// As [`CatalogIndex::topk`]: the certificate holds for complete
    /// matches only.
    pub fn compare(
        self,
        query: &Instance,
        cmp: &Comparator<'_>,
        deadline: Option<Instant>,
    ) -> Result<SearchOutcome, Error> {
        assert!(
            compatible_with(cmp.signature_config()),
            "Survivors::compare: comparator's partial/max_signatures_per_tuple \
             disagree with the index's map-shaping config"
        );
        let query_tuples = QueryTuples::new(query);
        let query_size = query.size();
        let mut hits: Vec<SearchHit> = Vec::with_capacity(self.survivors.len());
        let mut certified = 0;
        for s in self.survivors {
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return Err(Error::Budget {
                        budget: None,
                        elapsed: self.started.elapsed(),
                    });
                }
            }
            let (score, pairs) = if query_tuples.match_nothing_of(&s.pin) {
                certified += 1;
                // `score_state` of an empty match.
                let empty = query_size + s.pin.size() == 0;
                (if empty { 1.0 } else { 0.0 }, 0)
            } else {
                let out =
                    cmp.signature_with_maps(query, &s.pin, Some(&self.query_maps), Some(&s.maps))?;
                (out.best.score(), out.best.pairs.len())
            };
            hits.push(SearchHit {
                name: s.name,
                score,
                pairs,
            });
        }
        ic_obs::counter("index.certified_zero", certified as u64);
        let compared = hits.len() - certified;
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.name.cmp(&b.name))
        });
        hits.truncate(self.k);
        Ok(SearchOutcome {
            hits,
            compared,
            certified,
            total: self.total,
        })
    }
}

/// A catalog-level similarity index.
///
/// Entries live in one slot arena behind one `RwLock`: inserts and
/// removals take it exclusively for a swap (an entry's sketch and posting
/// hashes are built outside it), and a search's prefilter takes it shared.
/// Invalidation is by pointer identity: an entry is valid for a name
/// exactly while the catalog still maps that name to the same
/// `Arc<Instance>`: [`Self::insert`] with the same `Arc` is a no-op, with
/// another `Arc` a rebuild of the whole entry, and a caller that follows a
/// changing catalog calls it (or [`Self::remove`]) only for the names whose
/// pin changed. These two are the only ways to change the index.
///
/// The index builds no entry maps: the caller passes each entry's maps to
/// [`Self::insert`], so it can share one build with its own compares.
/// They must be built under [`SignatureConfig::default`], so a search
/// needs a comparator of the same map shape (complete matches, the
/// default signature cap); its mode and scoring may differ.
///
/// A search is two stages. [`Self::prefilter`] ranks the entries under
/// one read lock and clones pins and maps for the survivors only;
/// [`Survivors::compare`] then scores them without the lock, certifying
/// the ones that can match nothing and fully comparing the rest.
/// [`Self::topk`] is exactly those two calls. The prefilter only chooses
/// *which* entries are scored: every returned score is the exact
/// signature-algorithm score (bit-identical at any thread count), and
/// ties order deterministically by name.
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

    /// Indexes `name` → `pin` with `maps`, the pin's signature maps under
    /// [`SignatureConfig::default`], replacing any previous entry whose pin
    /// differs. Returns `true` if the index changed (no-op when the same
    /// `Arc` is already indexed).
    ///
    /// # Panics
    /// Panics if `maps` were built under another map shape (`partial`,
    /// `max_signatures_per_tuple`) than the default.
    pub fn insert(&self, name: &str, pin: &Arc<Instance>, maps: Arc<InstanceSigMaps>) -> bool {
        assert!(
            maps.compatible_with(&SignatureConfig::default()),
            "CatalogIndex::insert: maps of another map shape than the default"
        );
        if self
            .read()
            .get(name)
            .is_some_and(|e| Arc::ptr_eq(&e.pin, pin))
        {
            self.unchanged.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut head = [0u8; 8];
        let len = name.len().min(8);
        head[..len].copy_from_slice(&name.as_bytes()[..len]);
        let entry = Entry {
            name: name.into(),
            name_head: u64::from_be_bytes(head),
            pin: Arc::clone(pin),
            summary: Summary::new(maps, Sketch::build(pin)),
        };
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

    /// Top-k most similar indexed instances to `query`: exactly
    /// [`Self::prefilter`] followed by [`Survivors::compare`].
    ///
    /// Three stages: (1) cheap prefilter ranks — signature overlap via the
    /// inverted postings plus the minhash domain estimate, computed only
    /// for the entries that share a bucket or a sketch fingerprint slot
    /// with the query (every other entry estimates 0); (2) survivor
    /// selection — entries with signature overlap or a sketch estimate
    /// ≥ 0.5, padded to at least `max(4·k, 32)` by prefilter rank
    /// `(overlap desc, sketch desc, name asc)`; (3) the
    /// survivors' scores: the empty match's for a survivor with no tuple
    /// c-compatible with the query's (certified), the full signature
    /// comparison, seeded with the entries' maps, for every other.
    ///
    /// `deadline`, if any, is checked **before** every survivor; each
    /// comparison runs unbudgeted, so every returned score is exact, and
    /// expiry returns [`Error::Budget`].
    ///
    /// Scores and pair counts are bit-identical to a brute-force
    /// [`Comparator::compare`] loop at any thread count (the seeded-maps
    /// contract, and a certificate that holds only where the kernel
    /// matches nothing), and the final order is deterministic: `(score
    /// desc, name asc)`. With `k ≥ len()` every entry survives, so the
    /// result *is* the brute-force ranking.
    ///
    /// # Panics
    /// Panics if `cmp`'s map-shaping config (`partial`,
    /// `max_signatures_per_tuple`) differs from the default the entries'
    /// maps are built under (the [`ic_core::signature_match_seeded`]
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

    /// Stages 1 and 2 of [`Self::topk`], under one read lock. Signature
    /// overlap is counted from the postings, and a flat scan of the
    /// fingerprint rows finds the entries that may share a minhash slot
    /// with the query. Only entries with overlap or a fingerprint hit get
    /// their exact rank; every other entry has no matching slot (equal
    /// slots have equal low bits), so it ranks `(0, 0, name)`. Entries
    /// with overlap or a sketch estimate at the threshold are kept; the
    /// rest of the floor comes first from the ranked entries below the
    /// threshold, by partial selection when they outnumber it, and then
    /// from the unranked entries in name order. Only survivors have their
    /// name, pin and maps cloned. When `query` is itself indexed (the same
    /// `Arc` under its own name), its entry's maps, posting hashes and
    /// sketch are reused instead of rebuilt.
    ///
    /// Records an `index.prefilter` span with `index.entries`,
    /// `index.ranked` (the entries whose exact rank was computed) and
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
                built = Summary::new(Arc::new(cmp.build_maps(query)?), Sketch::build(query));
                &built
            }
        };

        // Stage 1: rank the entries that share a bucket or a fingerprint
        // slot with the query, without cloning anything.
        let mut overlap = vec![0u32; arena.entries.len()];
        for h in probe.sig_hashes.iter() {
            for &slot in arena.postings.get(h).into_iter().flatten() {
                overlap[slot as usize] += 1;
            }
        }
        let fingerprint = probe.sketch.fingerprint();
        // `kept` passes the filter; `below` holds the other entries with a
        // matching slot, which have no overlap and 1 to 31 of them.
        let (mut kept, mut below): (Vec<Rank>, Vec<Rank>) = (Vec::new(), Vec::new());
        let mut ranked = 0;
        for (slot, row) in arena.fingerprints.iter().enumerate() {
            if overlap[slot] == 0 && !fingerprints_meet(row, &fingerprint) {
                continue;
            }
            // A freed slot keeps its stale row.
            let Some(entry) = &arena.entries[slot] else {
                continue;
            };
            ranked += 1;
            let matches = probe.sketch.matching_slots(&entry.summary.sketch);
            let rank = Rank {
                overlap: Reverse(overlap[slot]),
                matches: Reverse(matches as u32),
                name_head: entry.name_head,
                name: &entry.name,
                slot: slot as u32,
            };
            if overlap[slot] > 0 || jaccard_estimate(matches) >= SKETCH_THRESHOLD {
                kept.push(rank);
            } else if matches > 0 {
                below.push(rank);
            }
        }
        let total = arena.by_name.len();

        // Stage 2: the rank order is the kept entries, then `below`, then
        // every other entry at `(0, 0, name)`; the survivors are the kept
        // entries plus the order's head up to the floor.
        let floor = k.saturating_mul(OVERSAMPLE).max(MIN_CANDIDATES).min(total);
        let fill = floor.saturating_sub(kept.len());
        if below.len() > fill {
            if fill > 0 {
                below.select_nth_unstable(fill - 1);
            }
            below.truncate(fill);
        }
        let zeros = fill - below.len();
        kept.append(&mut below);
        kept.sort_unstable();
        let survivor = |slot: u32| {
            let entry = arena.entry(slot);
            Survivor {
                name: entry.name.to_string(),
                pin: Arc::clone(&entry.pin),
                maps: Arc::clone(&entry.summary.maps),
            }
        };
        let mut survivors: Vec<Survivor> = kept.iter().map(|r| survivor(r.slot)).collect();
        if zeros > 0 {
            // `kept` now holds every entry with overlap or a matching
            // slot, so the zeros are the first of the others by name.
            let mut taken = vec![false; arena.entries.len()];
            for r in &kept {
                taken[r.slot as usize] = true;
            }
            survivors.extend(
                arena
                    .by_name
                    .values()
                    .filter(|&&slot| !taken[slot as usize])
                    .take(zeros)
                    .map(|&slot| survivor(slot)),
            );
        }
        ic_obs::counter("index.entries", total as u64);
        ic_obs::counter("index.ranked", ranked as u64);
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
    use ic_core::MatchMode;
    use ic_datagen::{generate_lake, LakeParams};
    use ic_model::{Catalog, RelationSchema, Schema, Value};
    use ic_testkit::{Gen, Runner};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// `pin`'s maps under the default config, as `insert` takes them.
    fn maps(pin: &Instance) -> Arc<InstanceSigMaps> {
        Arc::new(InstanceSigMaps::build(pin, &SignatureConfig::default()))
    }

    /// Stages 1–3 as the index ran them before ranking in place and
    /// certifying zeros: clone every entry, fully sort all of them by
    /// `(overlap desc, sketch desc, name asc)`, keep the prefix that passes
    /// the filter or lies under the floor, and fully compare it with
    /// freshly built query maps. Returns the survivor names in rank order,
    /// how many of them passed the filter (the rest fill the floor), and
    /// the outcome.
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
                name: entry.name.to_string(),
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
            certified: 0,
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
                (out.compared + out.certified, out.total),
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
            index.insert(pin.name(), pin, maps(pin));
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
            index.insert(pin.name(), pin, maps(pin));
        }
        // Free a slot and refill it, so a reused slot serves a new name.
        assert!(index.remove(pins[3].name()));
        assert!(index.insert(pins[3].name(), &pins[3], maps(&pins[3])));
        let cmp = Comparator::new(&cat).build().unwrap();
        let partial: usize = queries(&pins)
            .iter()
            .map(|query| assert_matches_reference(&index, query, &cmp))
            .sum();
        assert!(partial > 0, "no case selected partially");
    }

    /// Checks the arena against its entries: every posting names a live
    /// slot whose entry holds that hash, and names it once; every hash of
    /// a live entry is posted; every slot has a fingerprint row, and a live
    /// slot's row is its entry's sketch fingerprint; `by_name` maps exactly
    /// the live slots, each under its entry's name; and the free list is
    /// exactly the dead slots.
    fn assert_arena_consistent(index: &CatalogIndex, case: &str) {
        let arena = index.read();
        let (live, dead): (Vec<u32>, Vec<u32>) =
            (0..arena.entries.len() as u32).partition(|&s| arena.entries[s as usize].is_some());
        assert_eq!(arena.fingerprints.len(), arena.entries.len(), "{case}");
        for &slot in &live {
            assert_eq!(
                arena.fingerprints[slot as usize],
                arena.entry(slot).summary.sketch.fingerprint(),
                "fingerprint row of slot {slot}, {case}"
            );
        }
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
            assert_eq!(&*arena.entry(slot).name, name.as_str(), "{case}");
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
                        assert!(index.insert(name, &pool[i][v], maps(&pool[i][v])));
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
                            assert!(!index.insert(name, &pool[i][v], maps(&pool[i][v])));
                            want.unchanged += 1;
                        }
                        _ => {
                            let w = (v + rng.random_range(1..3usize)) % 3;
                            assert!(index.insert(name, &pool[i][w], maps(&pool[i][w])));
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
                fresh.insert(pin.name(), pin, maps(pin));
            }
            for query in &live {
                for k in [1, 10] {
                    let got = index.topk(query, k, &cmp, None).unwrap();
                    let want = fresh.topk(query, k, &cmp, None).unwrap();
                    let case = format!("seed {seed} query {} k={k}", query.name());
                    assert_eq!(
                        (got.compared, got.certified, got.total),
                        (want.compared, want.certified, want.total),
                        "{case}"
                    );
                    assert_eq!(bits(&got), bits(&want), "hits, {case}");
                }
            }
        }
    }

    /// How the arena's slots meet `query`, slot by slot and with nothing
    /// skipped: the live entries that pass the filter, those below it with
    /// 1 to 31 matching slots, those whose fingerprint meets the query's
    /// with neither overlap nor a matching slot (16-bit collisions), and
    /// the freed slots whose stale row meets it.
    #[derive(Debug, Default)]
    struct Census {
        passed: usize,
        below: usize,
        collisions: usize,
        stale: usize,
    }

    impl Census {
        fn take(index: &CatalogIndex, query: &Instance, cmp: &Comparator<'_>) -> Self {
            let hashes = signature_hashes(&cmp.build_maps(query).unwrap());
            let sketch = Sketch::build(query);
            let arena = index.read();
            let mut census = Census::default();
            for (slot, row) in arena.fingerprints.iter().enumerate() {
                let meets = fingerprints_meet(row, &sketch.fingerprint());
                let Some(entry) = &arena.entries[slot] else {
                    census.stale += usize::from(meets);
                    continue;
                };
                let overlap = entry
                    .summary
                    .sig_hashes
                    .iter()
                    .filter(|h| hashes.binary_search(h).is_ok())
                    .count();
                let matches = sketch.matching_slots(&entry.summary.sketch);
                assert!(matches == 0 || meets, "a matching slot missed the scan");
                if overlap > 0 || jaccard_estimate(matches) >= SKETCH_THRESHOLD {
                    census.passed += 1;
                } else if matches > 0 {
                    census.below += 1;
                } else if meets {
                    census.collisions += 1;
                }
            }
            census
        }

        /// The entries whose exact rank the prefilter computes.
        fn ranked(&self) -> usize {
            self.passed + self.below + self.collisions
        }
    }

    /// The `index.ranked` count of one top-`k` prefilter of `query`.
    fn ranked_count(index: &CatalogIndex, query: &Instance, k: usize, cmp: &Comparator<'_>) -> u64 {
        let sink = Arc::new(ic_obs::MemorySink::new());
        {
            let _obs = ic_obs::observe("search", Arc::clone(&sink) as Arc<dyn ic_obs::Sink>);
            index.prefilter(query, k, cmp).unwrap();
        }
        sink.last().unwrap().counter("index.ranked").unwrap_or(0)
    }

    /// The work bound of the fingerprint scan: on 4,000 entries whose
    /// clusters share no constant, a top-10 search ranks only the query's
    /// cluster and the 16-bit collisions, fewer than 40 entries. The lake
    /// is large enough that collisions (a fingerprint hit with no matching
    /// slot) occur, and the selection still equals the reference.
    #[test]
    fn prefilter_ranks_only_entries_that_share_something_with_the_query() {
        let lake = generate_lake(&LakeParams {
            clusters: 1000,
            versions_per_cluster: 4,
            rows: 3,
            arity: 3,
            ..LakeParams::default()
        });
        let pins: Vec<Arc<Instance>> = lake.instances.iter().cloned().map(Arc::new).collect();
        let index = CatalogIndex::default();
        for pin in &pins {
            index.insert(pin.name(), pin, maps(pin));
        }
        let cmp = Comparator::new(&lake.catalog).build().unwrap();
        let mut collisions = 0;
        for c in [0, 333, 999] {
            let query = &pins[lake.index_of(c, c % 4)];
            let census = Census::take(&index, query, &cmp);
            let ranked = ranked_count(&index, query, 10, &cmp);
            assert_eq!(ranked, census.ranked() as u64, "query {}", query.name());
            assert!(ranked < 40, "query {} ranked {ranked}", query.name());
            collisions += census.collisions;
            assert_matches_reference(&index, query, &cmp);
        }
        assert!(collisions > 0, "no fingerprint hit without a matching slot");
    }

    /// More entries below the filter than the floor has room for: every
    /// entry shares some pool constants with every other but no tuple
    /// (each row holds a constant of its own), so all rank with 0 overlap
    /// and the fill picks among them by partial selection.
    #[test]
    fn selection_fills_the_floor_from_more_ranked_entries_than_it_needs() {
        let mut cat = Catalog::new(Schema::single("R", &["a", "b", "c"]));
        let pool: Vec<_> = (0..8).map(|i| cat.konst(&format!("p{i}"))).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pins = Vec::new();
        for i in 0..64usize {
            let mut inst = Instance::new(format!("m{:02}", (i * 29) % 64), &cat);
            for r in 0..3 {
                let own = cat.konst(&format!("own{i}-{r}"));
                let row = vec![
                    pool[rng.random_range(0..8usize)],
                    pool[rng.random_range(0..8usize)],
                    own,
                ];
                inst.insert(RelId(0), row);
            }
            pins.push(Arc::new(inst));
        }
        let index = CatalogIndex::default();
        for pin in pins.iter().rev() {
            index.insert(pin.name(), pin, maps(pin));
        }
        let cmp = Comparator::new(&cat).build().unwrap();
        let mut crowded = 0;
        for query in queries(&pins) {
            let census = Census::take(&index, &query, &cmp);
            // The floor at k = 1.
            let fill = MIN_CANDIDATES.saturating_sub(census.passed);
            crowded += usize::from(census.below > fill);
            assert_matches_reference(&index, &query, &cmp);
        }
        assert!(
            crowded > 0,
            "no query had more ranked entries than the fill"
        );
    }

    /// A freed slot keeps its fingerprint row until reused: a search must
    /// skip the stale row even when it meets the query's, and must not
    /// count it as ranked.
    #[test]
    fn a_freed_slot_whose_stale_row_meets_the_query_is_skipped() {
        let lake = generate_lake(&LakeParams {
            clusters: 12,
            versions_per_cluster: 4,
            rows: 5,
            arity: 3,
            ..LakeParams::default()
        });
        let pins: Vec<Arc<Instance>> = lake.instances.iter().cloned().map(Arc::new).collect();
        let index = CatalogIndex::default();
        for pin in &pins {
            index.insert(pin.name(), pin, maps(pin));
        }
        // Free the query's cluster siblings: they share its constants.
        let query = &pins[lake.index_of(3, 0)];
        for v in 1..4 {
            assert!(index.remove(pins[lake.index_of(3, v)].name()));
        }
        assert_arena_consistent(&index, "after removals");
        let cmp = Comparator::new(&lake.catalog).build().unwrap();
        let census = Census::take(&index, query, &cmp);
        assert!(census.stale > 0, "no stale row meets the query");
        assert_eq!(
            ranked_count(&index, query, 10, &cmp),
            census.ranked() as u64
        );
        assert_matches_reference(&index, query, &cmp);
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
            index.insert(pin.name(), pin, maps(pin));
        }
        let cmp = Comparator::new(&lake.catalog).build().unwrap();
        let sink = Arc::new(ic_obs::MemorySink::new());
        let out = {
            let _obs = ic_obs::observe("search", Arc::clone(&sink) as Arc<dyn ic_obs::Sink>);
            index.topk(&pins[5], 1, &cmp, None).unwrap()
        };
        let report = sink.last().expect("one report");
        assert_eq!(report.find_span(&["index.prefilter"]).unwrap().count, 1);
        let survivors = out.compared + out.certified;
        assert_eq!(report.counter("index.survivors"), Some(survivors as u64));
        assert_eq!(report.counter("index.entries"), Some(out.total as u64));
        // A zero delta adds no key.
        assert_eq!(
            report.counter("index.certified_zero").unwrap_or(0),
            out.certified as u64
        );
        assert!(survivors < out.total, "the prefilter must cut something");
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

    /// The certificate holds for complete matches only, so `compare`
    /// checks the map shape even when no survivor reaches the kernel.
    #[test]
    #[should_panic(expected = "map-shaping")]
    fn compare_rejects_a_comparator_of_another_map_shape() {
        let mut cat = Catalog::new(Schema::single("R", &["a"]));
        let mut inst = Instance::new("x", &cat);
        inst.insert(RelId(0), vec![cat.konst("v")]);
        let pin = Arc::new(inst);
        let index = CatalogIndex::default();
        index.insert("x", &pin, maps(&pin));
        let survivors = index
            .prefilter(&pin, 1, &Comparator::new(&cat).build().unwrap())
            .unwrap();
        let partial = Comparator::new(&cat).partial(true).build().unwrap();
        let _ = survivors.compare(&pin, &partial, None);
    }

    /// An entry of another relation count is never certified, even with
    /// no tuple to pair: its full comparison fails as a direct one does.
    #[test]
    fn compare_rejects_an_entry_of_another_relation_count() {
        let mut cat = Catalog::new(Schema::single("R", &["a"]));
        let mut query = Instance::new("q", &cat);
        query.insert(RelId(0), vec![cat.konst("v")]);
        let mut wide = Schema::single("R", &["a"]);
        wide.add_relation(RelationSchema::new("S", &["a"]));
        let entry = Arc::new(Instance::new("e", &Catalog::new(wide)));
        let index = CatalogIndex::default();
        index.insert("e", &entry, maps(&entry));
        let cmp = Comparator::new(&cat).build().unwrap();
        let out = index.topk(&query, 1, &cmp, None);
        assert!(
            matches!(
                out,
                Err(Error::SchemaMismatch {
                    expected: 1,
                    found: 2
                })
            ),
            "{out:?}"
        );
    }

    /// A query that shares no constant and no null position with any
    /// entry: every survivor is certified, and an expired deadline still
    /// fails the search before the first of them.
    #[test]
    fn compare_checks_the_deadline_before_certified_survivors() {
        let mut cat = Catalog::new(Schema::single("R", &["a", "b"]));
        let mut table = |name: &str| {
            let mut inst = Instance::new(name, &cat);
            for r in 0..2 {
                let row = vec![
                    cat.konst(&format!("{name}a{r}")),
                    cat.konst(&format!("{name}b{r}")),
                ];
                inst.insert(RelId(0), row);
            }
            Arc::new(inst)
        };
        let query = table("q");
        let pins: Vec<Arc<Instance>> = ["e2", "e0", "e3", "e1"].map(&mut table).into();
        let index = CatalogIndex::default();
        for pin in &pins {
            index.insert(pin.name(), pin, maps(pin));
        }
        let cmp = Comparator::new(&cat).build().unwrap();
        let n = pins.len();

        let expired =
            index
                .prefilter(&query, n, &cmp)
                .unwrap()
                .compare(&query, &cmp, Some(Instant::now()));
        assert!(matches!(expired, Err(Error::Budget { .. })), "{expired:?}");

        let out = index
            .prefilter(&query, n, &cmp)
            .unwrap()
            .compare(&query, &cmp, None)
            .unwrap();
        assert_eq!((out.compared, out.certified, out.total), (0, n, n));
        let want: Vec<(String, u64, usize)> = ["e0", "e1", "e2", "e3"]
            .map(|name| (name.to_string(), 0.0f64.to_bits(), 0))
            .into();
        assert_eq!(bits(&out), want);
    }

    /// One random cell of [`certificate_is_exact_and_sound`]'s lakes: a
    /// constant of a small pool, a labeled null shared across the lake, or
    /// a fresh null.
    #[derive(Debug, Clone, Copy)]
    enum Cell {
        Const(u8),
        Shared(u8),
        Fresh,
    }

    /// Instances of two relations, R of arity 2 and S of arity 3: rows of
    /// cells, per relation.
    type Lake = Vec<[Vec<Vec<Cell>>; 2]>;

    fn gen_lake(g: &mut Gen) -> Lake {
        fn cell(g: &mut Gen) -> Cell {
            match g.rng().random_range(0..10u8) {
                0..=5 => Cell::Const(g.rng().random_range(0..5)),
                6 | 7 => Cell::Shared(g.rng().random_range(0..3)),
                _ => Cell::Fresh,
            }
        }
        g.vec_of(6, |g| {
            [2, 3].map(|arity| g.vec_of(3, |g| (0..arity).map(|_| cell(g)).collect()))
        })
    }

    /// The certificate is exactly "no c-compatible tuple pair in any
    /// relation", checked against a brute-force double loop over
    /// [`ic_core::c_compatible`] for every ordered pair of a random lake,
    /// and a certified pair's full comparison matches nothing and scores
    /// the empty match, bit for bit, in every match mode.
    #[test]
    fn certificate_is_exact_and_sound() {
        let certified = std::cell::Cell::new(0);
        let uncertified = std::cell::Cell::new(0);
        Runner::new("index::certificate_is_exact_and_sound")
            .cases(64)
            .run(gen_lake, |lake| {
                let mut schema = Schema::new();
                let rels = [
                    schema.add_relation(RelationSchema::new("R", &["a", "b"])),
                    schema.add_relation(RelationSchema::new("S", &["a", "b", "c"])),
                ];
                let mut cat = Catalog::new(schema);
                let shared: Vec<Value> = (0..3).map(|_| cat.fresh_null()).collect();
                let lake: Vec<Instance> = lake
                    .iter()
                    .enumerate()
                    .map(|(i, tables)| {
                        let mut inst = Instance::new(format!("i{i}"), &cat);
                        for (&rel, rows) in rels.iter().zip(tables) {
                            for row in rows {
                                let vals = row
                                    .iter()
                                    .map(|&c| match c {
                                        Cell::Const(k) => cat.konst(&format!("c{k}")),
                                        Cell::Shared(k) => shared[k as usize],
                                        Cell::Fresh => cat.fresh_null(),
                                    })
                                    .collect();
                                inst.insert(rel, vals);
                            }
                        }
                        inst
                    })
                    .collect();
                let modes = [
                    MatchMode::one_to_one(),
                    MatchMode::general(),
                    MatchMode::left_functional(),
                    MatchMode::bijective(),
                ];
                let cmps: Vec<Comparator<'_>> = modes
                    .iter()
                    .map(|&mode| Comparator::new(&cat).mode(mode).build().unwrap())
                    .collect();
                for query in &lake {
                    let query_tuples = QueryTuples::new(query);
                    for entry in &lake {
                        let brute = rels.iter().all(|&rel| {
                            query.tuples(rel).iter().all(|t| {
                                entry
                                    .tuples(rel)
                                    .iter()
                                    .all(|u| !ic_core::c_compatible(t, u))
                            })
                        });
                        let case = format!("{} vs {}", query.name(), entry.name());
                        assert_eq!(query_tuples.match_nothing_of(entry), brute, "{case}");
                        if !brute {
                            uncertified.set(uncertified.get() + 1);
                            continue;
                        }
                        certified.set(certified.get() + 1);
                        let empty = if query.size() + entry.size() == 0 {
                            1.0f64
                        } else {
                            0.0
                        };
                        for (cmp, mode) in cmps.iter().zip(&modes) {
                            let out = cmp.signature(query, entry).unwrap();
                            assert_eq!(out.best.pairs.len(), 0, "{case}, {mode:?}");
                            assert_eq!(
                                out.best.score().to_bits(),
                                empty.to_bits(),
                                "{case}, {mode:?}"
                            );
                        }
                    }
                }
            });
        // A reproduction of one case, under `IC_TESTKIT_SEED`, may not.
        if std::env::var_os(ic_testkit::SEED_ENV).is_none() {
            assert!(
                certified.get() > 0 && uncertified.get() > 0,
                "the lakes must hold certified and uncertified pairs: {} and {}",
                certified.get(),
                uncertified.get()
            );
        }
    }

    #[test]
    #[should_panic(expected = "map shape")]
    fn insert_rejects_maps_of_another_map_shape() {
        let mut cat = Catalog::new(Schema::single("R", &["a"]));
        let mut inst = Instance::new("x", &cat);
        inst.insert(RelId(0), vec![cat.konst("v")]);
        let partial = SignatureConfig {
            partial: true,
            ..SignatureConfig::default()
        };
        let maps = Arc::new(InstanceSigMaps::build(&inst, &partial));
        CatalogIndex::default().insert("x", &Arc::new(inst), maps);
    }

    #[test]
    fn a_poisoned_arena_stays_usable() {
        let mut cat = Catalog::new(Schema::single("R", &["a"]));
        let mut inst = Instance::new("x", &cat);
        inst.insert(RelId(0), vec![cat.konst("v")]);
        let pin = Arc::new(inst);
        let index = CatalogIndex::default();
        assert!(index.insert("x", &pin, maps(&pin)));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = index.arena.write().unwrap();
            panic!("poison the lock");
        }));
        assert!(index.arena.is_poisoned());
        assert_eq!(index.len(), 1);
        assert!(index.remove("x"));
        assert!(index.insert("x", &pin, maps(&pin)));
        assert!(!index.insert("x", &pin, maps(&pin)), "the entry is indexed");
    }
}
