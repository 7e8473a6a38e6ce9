//! The sharded catalog index: per-instance entries (sketch + signature
//! posting hashes + pinned [`InstanceSigMaps`]) distributed over
//! independently locked segments, and the [`CatalogIndex::topk`] search
//! that prefilters by sketch + signature overlap before running the full
//! comparison on survivors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use ic_core::{Comparator, Delta, DeltaError, Error, InstanceSigMaps, SignatureConfig};
use ic_model::{FxHashMap, Instance, RelId, Sym, TupleId};

use crate::sketch::{apply_delta_repairing_sketch, hash64, Sketch, SketchCounts};

/// Seed of the signature-posting hash family (disjoint from the sketch
/// family's).
const SIG_SEED: u64 = 0x1C5E_ACC4_5EED_0002;

/// Number of independently locked segments. Name-hashed; 16 keeps lock
/// contention negligible for catalog mutation rates while staying cheap to
/// scan at query time.
const SEGMENTS: usize = 16;

/// Recovers a mutex guard even if a previous holder panicked. Sound here
/// because every guarded segment is consistent at all times: entries are
/// swapped in/out whole, and posting lists are repaired in the same
/// critical section as the entry map.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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

/// One indexed instance: the name, the pinned `Arc<Instance>` whose
/// pointer identity keys invalidation (the same discipline as ic-serve's
/// `SigMapCache`), the prebuilt signature maps, the sketch, and the
/// posting hashes this entry occupies.
#[derive(Debug)]
struct Entry {
    name: String,
    pin: Arc<Instance>,
    maps: Arc<InstanceSigMaps>,
    sketch: Sketch,
    /// Constant-occurrence counts backing incremental sketch repair.
    counts: SketchCounts,
    sig_hashes: Box<[u64]>,
}

/// One index shard: slot-addressed entries plus the inverted posting map
/// from signature hash to occupying slots.
#[derive(Debug, Default)]
struct Segment {
    /// Slot-addressed entries; `None` marks a freed slot.
    entries: Vec<Option<Entry>>,
    by_name: FxHashMap<String, usize>,
    free: Vec<usize>,
    /// Inverted index: signature hash → slots of entries indexed under it.
    postings: FxHashMap<u64, Vec<u32>>,
}

impl Segment {
    fn remove_slot(&mut self, slot: usize) -> Entry {
        let entry = self.entries[slot].take().expect("slot is live");
        self.by_name.remove(&entry.name);
        for h in entry.sig_hashes.iter() {
            if let Some(slots) = self.postings.get_mut(h) {
                slots.retain(|&s| s as usize != slot);
                if slots.is_empty() {
                    self.postings.remove(h);
                }
            }
        }
        self.free.push(slot);
        entry
    }

    fn insert_entry(&mut self, entry: Entry) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.entries.push(None);
                self.entries.len() - 1
            }
        };
        for h in entry.sig_hashes.iter() {
            self.postings.entry(*h).or_default().push(slot as u32);
        }
        self.by_name.insert(entry.name.clone(), slot);
        self.entries[slot] = Some(entry);
    }
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

/// Tuning knobs of [`CatalogIndex::topk`]. The defaults favor recall: the
/// prefilter only cuts entries that share *no* whole-tuple signature with
/// the query **and** fall below the sketch threshold, and it always keeps
/// at least `max(oversample·k, min_candidates)` entries by prefilter rank.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Keep entries whose sketch Jaccard estimate is at least this, even
    /// with zero signature overlap.
    pub sketch_threshold: f64,
    /// Always fully compare at least `oversample · k` candidates.
    pub oversample: usize,
    /// Floor on the number of fully compared candidates.
    pub min_candidates: usize,
    /// Optional wall-clock deadline, checked **between** survivor
    /// comparisons (individual comparisons run unbudgeted so every
    /// returned score is exact). Expiry returns [`Error::Budget`].
    pub deadline: Option<Instant>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            sketch_threshold: 0.5,
            oversample: 4,
            min_candidates: 32,
            deadline: None,
        }
    }
}

/// Why [`CatalogIndex::apply_delta`] did not update an entry. In every
/// case the index is left exactly as it was.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaApplyError {
    /// The name is not indexed.
    NotIndexed(String),
    /// The entry's pin was concurrently replaced while the delta was being
    /// applied; the caller's view of the instance is outdated.
    Stale(String),
    /// An op in the delta failed validation.
    Op(DeltaError),
}

impl std::fmt::Display for DeltaApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotIndexed(name) => write!(f, "instance {name:?} is not indexed"),
            Self::Stale(name) => {
                write!(
                    f,
                    "entry {name:?} was concurrently replaced; delta not applied"
                )
            }
            Self::Op(e) => write!(f, "delta rejected: {e}"),
        }
    }
}

impl std::error::Error for DeltaApplyError {}

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

/// A sharded catalog-level similarity index.
///
/// Entries are distributed over 16 independently locked shards
/// by name hash, so index build/lookup stays concurrent with catalog
/// load/replace. Invalidation is by pointer identity: an entry is valid
/// for a name exactly while the catalog still maps that name to the same
/// `Arc<Instance>` (the `SigMapCache` pin discipline): [`Self::insert`]
/// with the same `Arc` is a no-op, with another `Arc` a rebuild, and a
/// caller that follows a changing catalog calls it (or [`Self::remove`])
/// only for the names whose pin changed.
///
/// `topk` never trades correctness for speed: the prefilter only chooses
/// *which* entries run the full comparison, every returned score is the
/// exact signature-algorithm score (bit-identical at any thread count),
/// and ties order deterministically by name.
#[derive(Debug)]
pub struct CatalogIndex {
    segments: Vec<Mutex<Segment>>,
    /// Map-shaping config (only `partial` + `max_signatures_per_tuple`
    /// matter; budget is stripped so maps always build deadline-free).
    map_cfg: SignatureConfig,
    inserts: AtomicU64,
    replacements: AtomicU64,
    removals: AtomicU64,
    unchanged: AtomicU64,
}

impl Default for CatalogIndex {
    fn default() -> Self {
        Self::new(&SignatureConfig::default())
    }
}

impl CatalogIndex {
    /// Creates an empty index whose signature maps are shaped by `cfg`
    /// (only [`SignatureConfig::partial`] and
    /// [`SignatureConfig::max_signatures_per_tuple`] matter).
    pub fn new(cfg: &SignatureConfig) -> Self {
        let map_cfg = SignatureConfig {
            budget: None,
            ..cfg.clone()
        };
        Self {
            segments: (0..SEGMENTS)
                .map(|_| Mutex::new(Segment::default()))
                .collect(),
            map_cfg,
            inserts: AtomicU64::new(0),
            replacements: AtomicU64::new(0),
            removals: AtomicU64::new(0),
            unchanged: AtomicU64::new(0),
        }
    }

    /// Whether a comparator built from `cfg` can consume this index's maps
    /// (the map-shaping fields agree).
    pub fn compatible_with(&self, cfg: &SignatureConfig) -> bool {
        self.map_cfg.partial == cfg.partial
            && self.map_cfg.max_signatures_per_tuple == cfg.max_signatures_per_tuple
    }

    fn segment_of(&self, name: &str) -> &Mutex<Segment> {
        let mut h = SIG_SEED;
        for b in name.as_bytes() {
            h = hash64(h, u64::from(*b));
        }
        &self.segments[(h % self.segments.len() as u64) as usize]
    }

    /// Builds the entry payload for `(name, pin)` — outside any segment
    /// lock, since map construction is the expensive part.
    fn build_entry(&self, name: &str, pin: &Arc<Instance>) -> Entry {
        let maps = InstanceSigMaps::build(pin, &self.map_cfg);
        let sig_hashes = signature_hashes(&maps);
        let (sketch, counts) = Sketch::build_counted(pin);
        Entry {
            name: name.to_string(),
            pin: Arc::clone(pin),
            maps: Arc::new(maps),
            sketch,
            counts,
            sig_hashes,
        }
    }

    /// Indexes `name` → `pin`, replacing any previous entry whose pin
    /// differs. Returns `true` if the index changed (no-op when the same
    /// `Arc` is already indexed).
    pub fn insert(&self, name: &str, pin: &Arc<Instance>) -> bool {
        {
            let seg = lock_recover(self.segment_of(name));
            if let Some(&slot) = seg.by_name.get(name) {
                let entry = seg.entries[slot].as_ref().expect("by_name slot is live");
                if Arc::ptr_eq(&entry.pin, pin) {
                    self.unchanged.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let entry = self.build_entry(name, pin);
        let mut seg = lock_recover(self.segment_of(name));
        if let Some(&slot) = seg.by_name.get(name) {
            // Re-check under the lock: a racing insert may have landed.
            let live = seg.entries[slot].as_ref().expect("by_name slot is live");
            if Arc::ptr_eq(&live.pin, pin) {
                self.unchanged.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            seg.remove_slot(slot);
            self.replacements.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        seg.insert_entry(entry);
        true
    }

    /// Drops `name` from the index. Returns `true` if it was indexed.
    pub fn remove(&self, name: &str) -> bool {
        let mut seg = lock_recover(self.segment_of(name));
        if let Some(&slot) = seg.by_name.get(name) {
            seg.remove_slot(slot);
            self.removals.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| lock_recover(s).by_name.len())
            .sum()
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

    /// Applies `delta` to the indexed instance `name` **incrementally**:
    /// instead of rebuilding the entry from scratch, the pinned instance,
    /// its signature maps, its sketch and the sketch's domain counts are
    /// cloned and repaired in place (via
    /// [`ic_core::apply_delta_repairing`] /
    /// [`apply_delta_repairing_sketch`]), then the entry is swapped whole.
    /// The repaired entry is bit-identical to one freshly built from the
    /// mutated instance — only the per-op repair work is paid, not a full
    /// map/sketch rebuild.
    ///
    /// Returns the new pin (the caller's catalog should adopt it — the old
    /// `Arc<Instance>` no longer keys this entry) and the ids of inserted
    /// tuples.
    ///
    /// Unlike the underlying prefix-applying primitives, this is
    /// **all-or-nothing**: repair runs on private clones, so any error
    /// ([`DeltaApplyError`]) leaves the indexed entry untouched.
    pub fn apply_delta(
        &self,
        name: &str,
        delta: &Delta,
    ) -> Result<(Arc<Instance>, Vec<TupleId>), DeltaApplyError> {
        // Snapshot the entry under the lock; repair outside it.
        let (old_pin, mut instance, mut maps, mut sketch, mut counts) = {
            let seg = lock_recover(self.segment_of(name));
            let Some(&slot) = seg.by_name.get(name) else {
                return Err(DeltaApplyError::NotIndexed(name.to_string()));
            };
            let entry = seg.entries[slot].as_ref().expect("by_name slot is live");
            (
                Arc::clone(&entry.pin),
                (*entry.pin).clone(),
                (*entry.maps).clone(),
                entry.sketch.clone(),
                entry.counts.clone(),
            )
        };
        let inserted = apply_delta_repairing_sketch(
            &mut instance,
            Some(&mut maps),
            &mut sketch,
            &mut counts,
            delta,
        )
        .map_err(DeltaApplyError::Op)?;
        let sig_hashes = signature_hashes(&maps);
        let entry = Entry {
            name: name.to_string(),
            pin: Arc::new(instance),
            maps: Arc::new(maps),
            sketch,
            counts,
            sig_hashes,
        };
        let new_pin = Arc::clone(&entry.pin);
        let mut seg = lock_recover(self.segment_of(name));
        match seg.by_name.get(name) {
            Some(&slot) => {
                let live = seg.entries[slot].as_ref().expect("by_name slot is live");
                if !Arc::ptr_eq(&live.pin, &old_pin) {
                    return Err(DeltaApplyError::Stale(name.to_string()));
                }
                seg.remove_slot(slot);
            }
            None => return Err(DeltaApplyError::Stale(name.to_string())),
        }
        seg.insert_entry(entry);
        self.replacements.fetch_add(1, Ordering::Relaxed);
        Ok((new_pin, inserted))
    }

    /// The prebuilt signature maps of `name`, if indexed **and** still
    /// pinned to `pin` (pointer identity). Lets callers reuse the index's
    /// maps for their own seeded comparisons.
    pub fn entry_maps(&self, name: &str, pin: &Arc<Instance>) -> Option<Arc<InstanceSigMaps>> {
        let seg = lock_recover(self.segment_of(name));
        let &slot = seg.by_name.get(name)?;
        let entry = seg.entries[slot].as_ref().expect("by_name slot is live");
        if Arc::ptr_eq(&entry.pin, pin) {
            Some(Arc::clone(&entry.maps))
        } else {
            None
        }
    }

    /// Top-k most similar indexed instances to `query`.
    ///
    /// Three stages: (1) cheap prefilter scores for **every** entry —
    /// signature overlap via the inverted postings plus the minhash domain
    /// estimate; (2) survivor selection — entries with signature overlap
    /// or a sketch estimate ≥ `opts.sketch_threshold`, padded to at least
    /// `max(oversample·k, min_candidates)` by prefilter rank `(overlap
    /// desc, sketch desc, name asc)`; (3) the full signature comparison on
    /// survivors only, seeded with the index's prebuilt maps.
    ///
    /// Scores are bit-identical to a brute-force [`Comparator::compare`]
    /// loop at any thread count (the seeded-maps contract), and the final
    /// order is deterministic: `(score desc, name asc)`. With `k ≥ len()`
    /// every entry survives, so the result *is* the brute-force ranking.
    ///
    /// # Panics
    /// Panics if `cmp`'s map-shaping config disagrees with this index's
    /// (the [`ic_core::signature_match_seeded`] seeding contract).
    pub fn topk(
        &self,
        query: &Instance,
        k: usize,
        cmp: &Comparator<'_>,
        opts: &SearchOptions,
    ) -> Result<SearchOutcome, Error> {
        assert!(
            self.compatible_with(cmp.signature_config()),
            "CatalogIndex::topk: comparator's partial/max_signatures_per_tuple \
             disagree with the index's map-shaping config"
        );
        let started = Instant::now();
        let query_maps = cmp.build_maps(query)?;
        let query_hashes = signature_hashes(&query_maps);
        let query_sketch = Sketch::build(query);

        // Stage 1: prefilter scores for every entry, segment by segment.
        struct Candidate {
            name: String,
            pin: Arc<Instance>,
            maps: Arc<InstanceSigMaps>,
            overlap: u32,
            sketch_sim: f64,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for seg in &self.segments {
            let seg = lock_recover(seg);
            let mut overlap: FxHashMap<u32, u32> = FxHashMap::default();
            for h in query_hashes.iter() {
                if let Some(slots) = seg.postings.get(h) {
                    for &slot in slots {
                        *overlap.entry(slot).or_insert(0) += 1;
                    }
                }
            }
            for (slot, entry) in seg.entries.iter().enumerate() {
                let Some(entry) = entry else { continue };
                candidates.push(Candidate {
                    name: entry.name.clone(),
                    pin: Arc::clone(&entry.pin),
                    maps: Arc::clone(&entry.maps),
                    overlap: overlap.get(&(slot as u32)).copied().unwrap_or(0),
                    sketch_sim: query_sketch.domain_jaccard(&entry.sketch),
                });
            }
        }
        let total = candidates.len();

        // Stage 2: survivor selection by deterministic prefilter rank.
        candidates.sort_by(|a, b| {
            b.overlap
                .cmp(&a.overlap)
                .then_with(|| b.sketch_sim.total_cmp(&a.sketch_sim))
                .then_with(|| a.name.cmp(&b.name))
        });
        let keep_floor = k
            .saturating_mul(opts.oversample.max(1))
            .max(opts.min_candidates)
            .min(total);
        let survivors = candidates
            .iter()
            .enumerate()
            .take_while(|(i, c)| {
                *i < keep_floor || c.overlap > 0 || c.sketch_sim >= opts.sketch_threshold
            })
            .count();

        // Stage 3: full comparison on survivors, seeded with index maps.
        let mut hits: Vec<SearchHit> = Vec::with_capacity(survivors);
        for c in &candidates[..survivors] {
            if let Some(deadline) = opts.deadline {
                if Instant::now() >= deadline {
                    return Err(Error::Budget {
                        budget: None,
                        elapsed: started.elapsed(),
                    });
                }
            }
            let out = cmp.signature_with_maps(query, &c.pin, Some(&query_maps), Some(&c.maps))?;
            hits.push(SearchHit {
                name: c.name.clone(),
                score: out.best.score(),
                pairs: out.best.pairs.len(),
            });
        }
        hits.sort_by(|a, b| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.name.cmp(&b.name))
        });
        hits.truncate(k);
        Ok(SearchOutcome {
            hits,
            compared: survivors,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recover_survives_poison() {
        let m = Mutex::new(5);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 5);
        // And again, now that the guard from the recovery was dropped.
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 6);
    }
}
