//! Server-side signature-map cache: amortizes the per-instance sigmap
//! build across `compare` requests that keep hitting the same catalog
//! entries.
//!
//! The catalog is copy-on-write ([`crate::catalog::ServeCatalog`]): a
//! `load` that replaces an instance produces a *new* [`Arc<Instance>`] in
//! the next snapshot, while older snapshots keep the old one alive. That
//! makes the correct invalidation rule a single pointer comparison —
//! [`SigMapCache::lookup`] returns a cached map only while its pinned
//! `Arc<Instance>` is **the same allocation** the request's snapshot
//! resolves, so a replaced instance can never be served with the stale
//! index (the stale entry is dropped and counted as an invalidation).
//!
//! Maps are built without a deadline and reused by every worker; under the
//! seeding contract of [`ic_core::signature_match_seeded`] the scores are
//! bit-identical to building from scratch per request.
//!
//! Pointer-identity invalidation alone is **lazy**: it only fires when a
//! stale name is looked up again. An instance *removed* from the catalog
//! is never looked up again, so its entry — maps plus the pinned
//! `Arc<Instance>` keeping the whole instance alive — would leak forever.
//! [`SigMapCache::sweep`] is the removal-driven complement: given a fresh
//! snapshot it drops every entry whose name is gone or whose pin no longer
//! matches, counted as evictions. The server runs it from a
//! [`crate::catalog::ServeCatalog::subscribe`] hook on every mutation.

use crate::catalog::Snapshot;
use crate::lockutil::lock_recover;
use ic_core::InstanceSigMaps;
use ic_model::Instance;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic counters describing a [`SigMapCache`]'s effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SigCacheStats {
    /// Lookups answered from the cache (same instance pointer).
    pub hits: u64,
    /// Lookups for a name with no cached entry.
    pub misses: u64,
    /// Cached entries dropped because the catalog instance was replaced.
    pub invalidations: u64,
    /// Entries dropped by [`SigMapCache::sweep`], the removal-driven
    /// eviction — without it, removed catalog entries would stay pinned
    /// in the cache forever.
    pub evictions: u64,
}

/// A cached entry: the instance pin and the maps built from it.
type Entry = (Arc<Instance>, Arc<InstanceSigMaps>);

/// A name → (instance pin, signature maps) cache shared by the server's
/// workers. See the [module docs](self) for the invalidation rule.
#[derive(Debug, Default)]
pub struct SigMapCache {
    inner: Mutex<HashMap<String, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl SigMapCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached maps for `name` if they were built for exactly
    /// the instance `current` (pointer identity). A stale entry — the
    /// catalog has since replaced the instance — is removed and counted
    /// as an invalidation.
    pub fn lookup(&self, name: &str, current: &Arc<Instance>) -> Option<Arc<InstanceSigMaps>> {
        let mut inner = lock_recover(&self.inner);
        match inner.get(name) {
            Some((pinned, maps)) if Arc::ptr_eq(pinned, current) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(maps))
            }
            Some(_) => {
                inner.remove(name);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `maps` for `name`, pinned to the instance they were built
    /// from. Racing workers may both build after a miss; last store wins —
    /// both maps are correct for the same pinned instance.
    pub fn store(&self, name: &str, instance: Arc<Instance>, maps: Arc<InstanceSigMaps>) {
        lock_recover(&self.inner).insert(name.to_string(), (instance, maps));
    }

    /// Drops every entry that `snapshot` no longer backs: the name is gone
    /// from the catalog, or the catalog now holds a different instance
    /// under it (the pin no longer matches by pointer). Returns the number
    /// of entries dropped; each counts as an eviction.
    ///
    /// This is what keeps the cache from leaking removed instances —
    /// `lookup` only ever invalidates names that are still being asked
    /// for.
    pub fn sweep(&self, snapshot: &Snapshot) -> usize {
        let mut inner = lock_recover(&self.inner);
        let before = inner.len();
        inner.retain(|name, (pinned, _)| {
            snapshot
                .get(name)
                .is_some_and(|current| Arc::ptr_eq(current, pinned))
        });
        let dropped = before - inner.len();
        self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        lock_recover(&self.inner).is_empty()
    }

    /// A snapshot of the hit/miss/invalidation/eviction counters.
    pub fn stats(&self) -> SigCacheStats {
        SigCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::SignatureConfig;
    use ic_model::{Catalog, RelId, Schema};

    fn instance(cat: &mut Catalog, rows: &[&str]) -> Arc<Instance> {
        let mut inst = Instance::new("t", cat);
        for &a in rows {
            let v = cat.konst(a);
            inst.insert(RelId(0), vec![v]);
        }
        Arc::new(inst)
    }

    #[test]
    fn hit_miss_and_invalidation_counters() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let v1 = instance(&mut cat, &["a", "b"]);
        let v2 = instance(&mut cat, &["a", "c"]);
        let cfg = SignatureConfig::default();
        let cache = SigMapCache::new();

        assert!(cache.lookup("x", &v1).is_none()); // miss
        cache.store(
            "x",
            Arc::clone(&v1),
            Arc::new(InstanceSigMaps::build(&v1, &cfg)),
        );
        assert!(cache.lookup("x", &v1).is_some()); // hit
        assert_eq!(cache.len(), 1);

        // Same name, replaced instance: stale entry dropped.
        assert!(cache.lookup("x", &v2).is_none());
        assert!(cache.is_empty());
        assert_eq!(
            cache.stats(),
            SigCacheStats {
                hits: 1,
                misses: 2,
                invalidations: 1,
                evictions: 0,
            }
        );
    }

    #[test]
    fn sweep_drops_removed_and_replaced_entries() {
        use crate::catalog::ServeCatalog;

        let sc = ServeCatalog::new(Schema::single("R", &["A"]));
        for name in ["keep", "gone", "replaced"] {
            sc.register_with(name, |cat| {
                let mut inst = Instance::new(name, cat);
                let v = cat.konst(name);
                inst.insert(RelId(0), vec![v]);
                Ok(inst)
            })
            .unwrap();
        }

        let cfg = SignatureConfig::default();
        let cache = SigMapCache::new();
        let snap = sc.snapshot();
        for (name, pin) in snap.iter() {
            cache.store(
                name,
                Arc::clone(pin),
                Arc::new(InstanceSigMaps::build(pin, &cfg)),
            );
        }
        assert_eq!(cache.len(), 3);

        assert!(sc.remove("gone").unwrap());
        sc.register_with("replaced", |cat| {
            let mut inst = Instance::new("replaced", cat);
            let v = cat.konst("other");
            inst.insert(RelId(0), vec![v]);
            Ok(inst)
        })
        .unwrap();

        let dropped = cache.sweep(&sc.snapshot());
        assert_eq!(dropped, 2, "one removed + one replaced entry");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 2);
        // The surviving entry still answers for its live pin.
        let snap = sc.snapshot();
        assert!(cache.lookup("keep", snap.get("keep").unwrap()).is_some());
    }
}
