//! The named-instance catalog: schema-aligned instances behind
//! copy-on-write snapshots.
//!
//! A [`ServeCatalog`] owns one [`ic_model::Catalog`] (schema + interner +
//! null generator) and a set of named instances built against it. Readers
//! take an immutable [`Snapshot`] (`Arc`-shared); writers clone the current
//! snapshot, mutate the clone, and atomically swap it in. An in-flight
//! request therefore computes against exactly the catalog state it was
//! admitted under — a concurrent `load` can never tear the interner, the
//! schema, or an instance out from under it ("old snapshot answered, new
//! snapshot used afterward").
//!
//! Every mutation is one [`CatalogOp`] — `Put`, `Patch` or `Remove` —
//! funnelled through [`ServeCatalog::apply`]. The op vocabulary is shared
//! with the WAL in `ic-store`, so a catalog opened with
//! [`durable`](ServeCatalog::durable) logs exactly the op it applies:
//! the record is appended (write-ahead) inside the mutation's critical
//! section, before the snapshot swap, and replayed at the next open
//! through the same checks a live op passes. The legacy mutators
//! (`register`, `register_with`, `load_csv_dir`, `remove`) are thin
//! wrappers that build the op.
//!
//! A mutation costs what it changes, not what the catalog holds. Cloning
//! a snapshot copies pointers: the interner's table is shared until the
//! op interns a constant the catalog has not seen (one table copy, see
//! [`ic_model::Interner`]), and the instances are a name-sorted list of
//! `(name, pin)` pairs whose copy bumps two reference counts per entry.
//! Every instance the op does not touch keeps its pin, so a consumer keyed
//! by pointer identity (the search index) sees exactly which names
//! changed. Reads stay lock-free after the one `Mutex`-guarded `Arc`
//! clone.
//!
//! A pin also carries a once-filled slot for its instance's signature
//! maps, the one place serve keeps them: the first reader that needs them
//! builds them, every snapshot sharing the pin shares them, and they are
//! dropped with the pin. A `Patch` of a pin whose maps were built repairs
//! them into the new pin, so the next reader finds them current.

use crate::lockutil::lock_recover;
use ic_core::{Delta, DeltaError, DeltaOp, InstanceSigMaps, SignatureConfig};
use ic_model::csv::{read_csv_into, CsvError, CsvOptions};
use ic_model::{Catalog, Instance, Schema, TupleId, Value};
use ic_store::{
    decode_snapshot, encode_record, encode_snapshot, read_records, CatalogOp, DomainDelta, Storage,
    StoreError,
};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// A snapshot-change observer registered with
/// [`ServeCatalog::subscribe`]. Called with the snapshot that was just
/// published, after the swap, outside any catalog lock.
pub type SnapshotObserver = Box<dyn Fn(&Snapshot) + Send + Sync>;

/// One catalog entry: an instance and a once-filled slot for its
/// signature maps under [`SignatureConfig::default`], the map shape
/// serve's comparators and search index both use. A mutation that changes
/// the instance makes a new pin, so the maps in a slot always describe
/// the instance beside them.
#[derive(Debug)]
pub(crate) struct Pin {
    instance: Arc<Instance>,
    maps: OnceLock<Arc<InstanceSigMaps>>,
}

impl Pin {
    fn new(instance: Arc<Instance>) -> Self {
        Self {
            instance,
            maps: OnceLock::new(),
        }
    }

    /// The pin for `new`, which is this pin's instance with `delta`
    /// applied. If this pin's maps were built, the new pin starts with
    /// them repaired forward, equal to a build over `new`; otherwise its
    /// slot starts empty.
    fn patched(&self, new: Instance, delta: &Delta) -> Self {
        let instance = Arc::new(new);
        let maps = match self.maps.get() {
            Some(old) => {
                let mut maps = InstanceSigMaps::clone(old);
                maps.repair(&self.instance, &instance, delta);
                OnceLock::from(Arc::new(maps))
            }
            None => OnceLock::new(),
        };
        Self { instance, maps }
    }

    pub(crate) fn instance(&self) -> &Arc<Instance> {
        &self.instance
    }

    /// The instance's signature maps, if a reader built them or a patch
    /// repaired them into this pin.
    pub(crate) fn maps(&self) -> Option<&Arc<InstanceSigMaps>> {
        self.maps.get()
    }

    /// The instance's signature maps, built into the slot on first use.
    /// Concurrent first uses build once; the others wait for that build.
    pub(crate) fn maps_or_build(&self) -> &Arc<InstanceSigMaps> {
        self.maps.get_or_init(|| {
            Arc::new(InstanceSigMaps::build(
                &self.instance,
                &SignatureConfig::default(),
            ))
        })
    }
}

/// A snapshot's instances: `(name, pin)` pairs sorted by name, without
/// duplicates. Snapshots share the list until a mutation changes it, and
/// a changed list still shares every name and pin it did not touch.
pub(crate) type PinList = Arc<Vec<(Arc<str>, Arc<Pin>)>>;

/// An immutable view of the catalog at one version. Everything a request
/// needs — value domains and instances — is reachable from here and
/// guaranteed internally consistent.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotone version counter; bumps on every successful mutation.
    pub version: u64,
    /// The shared value domains (schema, interner, nulls).
    pub catalog: Catalog,
    instances: PinList,
}

impl Snapshot {
    fn empty(version: u64, catalog: Catalog) -> Self {
        Self {
            version,
            catalog,
            instances: PinList::default(),
        }
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.instances.binary_search_by(|(n, _)| (**n).cmp(name))
    }

    /// Looks up an instance by name.
    pub fn get(&self, name: &str) -> Option<&Arc<Instance>> {
        self.pin(name).map(Pin::instance)
    }

    /// The pin registered under `name`: its instance and its maps slot.
    pub(crate) fn pin(&self, name: &str) -> Option<&Pin> {
        let i = self.position(name).ok()?;
        Some(&self.instances[i].1)
    }

    /// Instance names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.instances.iter().map(|(n, _)| &**n)
    }

    /// Number of registered instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the catalog holds no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Iterates `(name, instance)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Instance>)> {
        self.instances.iter().map(|(n, p)| (&**n, &p.instance))
    }

    /// The name-sorted pin list itself. Keep it (not the snapshot) to
    /// diff a later snapshot against this one with [`diff_pins`]: it
    /// holds the instances but not the value domains.
    pub(crate) fn pins(&self) -> &PinList {
        &self.instances
    }

    /// Registers `pin` under `name`, replacing any previous pin; returns
    /// whether the name existed. A replaced entry keeps its name `Arc`.
    fn put(&mut self, name: &str, pin: Pin) -> bool {
        let at = self.position(name);
        let list = Arc::make_mut(&mut self.instances);
        match at {
            Ok(i) => {
                list[i].1 = Arc::new(pin);
                true
            }
            Err(i) => {
                list.insert(i, (Arc::from(name), Arc::new(pin)));
                false
            }
        }
    }

    /// Drops `name`; returns whether it existed.
    fn remove(&mut self, name: &str) -> bool {
        let Ok(i) = self.position(name) else {
            return false;
        };
        Arc::make_mut(&mut self.instances).remove(i);
        true
    }
}

/// Walks two name-sorted pin lists in one merge pass and reports every
/// name whose pin differs: `Some(pin)` for a name `new` adds or maps to
/// another pin than `old` does, `None` for a name only `old` holds.
/// A name with the same pin in both costs a pointer comparison, and two
/// lists that are one `Arc` cost nothing.
pub(crate) fn diff_pins(old: &PinList, new: &PinList, mut changed: impl FnMut(&str, Option<&Pin>)) {
    use std::cmp::Ordering::{Equal, Greater, Less};
    if Arc::ptr_eq(old, new) {
        return;
    }
    let (mut i, mut j) = (0, 0);
    loop {
        let order = match (old.get(i), new.get(j)) {
            (None, None) => return,
            (Some(_), None) => Less,
            (None, Some(_)) => Greater,
            (Some((a, _)), Some((b, _))) if Arc::ptr_eq(a, b) => Equal,
            (Some((a, _)), Some((b, _))) => a.cmp(b),
        };
        match order {
            Less => {
                changed(&old[i].0, None);
                i += 1;
            }
            Greater => {
                changed(&new[j].0, Some(&new[j].1));
                j += 1;
            }
            Equal => {
                if !Arc::ptr_eq(&old[i].1, &new[j].1) {
                    changed(&new[j].0, Some(&new[j].1));
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Why a catalog mutation failed.
#[derive(Debug)]
pub enum CatalogError {
    /// An instance was built for a different schema (relation count
    /// mismatch — its relation ids would be misinterpreted).
    SchemaMismatch {
        /// Relations in the catalog schema.
        expected: usize,
        /// Relations the instance was built with.
        found: usize,
    },
    /// Reading a CSV file failed at the I/O level.
    Io {
        /// The file being read.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A CSV file did not parse.
    Csv {
        /// The file being read.
        path: PathBuf,
        /// The parse error.
        error: CsvError,
    },
    /// The directory contained no `<relation>.csv` file for any schema
    /// relation — almost certainly a wrong path.
    NoData {
        /// The directory that was scanned.
        dir: PathBuf,
    },
    /// A `Patch` or replay targeted an instance the catalog does not hold.
    UnknownInstance {
        /// The missing entry name.
        name: String,
    },
    /// A `Patch` delta did not apply cleanly to the target instance.
    Delta {
        /// The patched entry name.
        name: String,
        /// The first op that failed (earlier ops were rolled back with
        /// the whole mutation).
        error: DeltaError,
    },
    /// A `Put` instance or a `Patch`'s inserted or modified values
    /// referenced constants or nulls outside this catalog's value domains
    /// — they were built against a different `Catalog`. Build through
    /// [`ServeCatalog::apply_with`] (or `register_with`, `patch`) so the
    /// domains travel with the op. Replay rejects such a logged op too.
    ForeignValue {
        /// The offending entry name.
        name: String,
    },
    /// The durability backend failed: an I/O error on append/install, or
    /// persisted bytes that no longer decode.
    Store(StoreError),
    /// A durable open found a snapshot written for a different schema.
    StoredSchemaMismatch,
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::SchemaMismatch { expected, found } => write!(
                f,
                "instance does not match the catalog schema: expected {expected} relations, \
                 instance was built for {found}"
            ),
            CatalogError::Io { path, error } => {
                write!(f, "reading {}: {error}", path.display())
            }
            CatalogError::Csv { path, error } => {
                write!(f, "parsing {}: {error}", path.display())
            }
            CatalogError::NoData { dir } => write!(
                f,
                "no <relation>.csv file found in {} for any schema relation",
                dir.display()
            ),
            CatalogError::UnknownInstance { name } => {
                write!(f, "no instance named {name:?} in the catalog")
            }
            CatalogError::Delta { name, error } => {
                write!(f, "patching {name:?}: {error}")
            }
            CatalogError::ForeignValue { name } => write!(
                f,
                "instance {name:?} references values outside the catalog's domains \
                 (built against a different Catalog?)"
            ),
            CatalogError::Store(error) => write!(f, "durable store: {error}"),
            CatalogError::StoredSchemaMismatch => {
                write!(f, "stored snapshot was written for a different schema")
            }
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatalogError::Io { error, .. } => Some(error),
            CatalogError::Csv { error, .. } => Some(error),
            CatalogError::Delta { error, .. } => Some(error),
            CatalogError::Store(error) => Some(error),
            _ => None,
        }
    }
}

impl From<StoreError> for CatalogError {
    fn from(e: StoreError) -> Self {
        CatalogError::Store(e)
    }
}

/// What [`ServeCatalog::apply`] did, for callers that report back over
/// the wire.
#[derive(Debug)]
pub struct ApplyOutcome {
    /// The snapshot version the op produced.
    pub version: u64,
    /// The instance now registered under the op's name (`None` for
    /// `Remove`). This is the same `Arc` pin the new snapshot holds.
    pub instance: Option<Arc<Instance>>,
    /// Tuple ids assigned to `Patch` inserts, in op order.
    pub inserted: Vec<TupleId>,
    /// Whether the name existed before the op (`Put` replaced, `Remove`
    /// removed something).
    pub existed: bool,
}

/// A concurrent registry of named, schema-aligned instances with
/// copy-on-write replacement. See the [module docs](self).
pub struct ServeCatalog {
    current: Mutex<Arc<Snapshot>>,
    subscribers: Mutex<Vec<SnapshotObserver>>,
    /// WAL backend when opened with [`durable`](Self::durable); locked
    /// only inside a mutation's critical section (after `current`).
    store: Mutex<Option<Box<dyn Storage>>>,
}

impl fmt::Debug for ServeCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeCatalog")
            .field("version", &self.version())
            .field("instances", &self.snapshot().len())
            .field("subscribers", &lock_recover(&self.subscribers).len())
            .field("durable", &lock_recover(&self.store).is_some())
            .finish_non_exhaustive()
    }
}

impl ServeCatalog {
    /// Creates an empty catalog over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self::from_catalog(Catalog::new(schema))
    }

    /// Creates a catalog adopting existing value domains — the programmatic
    /// path: build instances against `catalog` first, then
    /// [`register`](Self::register) them.
    pub fn from_catalog(catalog: Catalog) -> Self {
        Self::from_snapshot(Snapshot::empty(0, catalog), None)
    }

    fn from_snapshot(snapshot: Snapshot, store: Option<Box<dyn Storage>>) -> Self {
        Self {
            current: Mutex::new(Arc::new(snapshot)),
            subscribers: Mutex::new(Vec::new()),
            store: Mutex::new(store),
        }
    }

    /// Opens a durable catalog over `schema`: recovers the stored state
    /// (snapshot plus WAL replay — a torn final record is dropped, and
    /// records the snapshot already folded in are skipped), compacts the
    /// recovered state into a fresh snapshot, and logs every subsequent
    /// [`apply`](Self::apply) to the WAL before publishing it. Each
    /// replayed op passes the checks a live op does; one that fails them
    /// fails the open with that op's error, before anything is compacted.
    pub fn durable(schema: Schema, mut storage: Box<dyn Storage>) -> Result<Self, CatalogError> {
        // Recover: snapshot first, then replay whatever the WAL adds.
        let (mut catalog, stored, version) =
            match storage.read_snapshot().map_err(StoreError::Io)? {
                Some(bytes) => {
                    let state = decode_snapshot(&bytes)?;
                    if !state.catalog.schema().compatible_with(&schema) {
                        return Err(CatalogError::StoredSchemaMismatch);
                    }
                    (state.catalog, state.instances, state.version)
                }
                None => (Catalog::new(schema), Vec::new(), 0),
            };
        let wal = storage.read_wal().map_err(StoreError::Io)?;
        let (records, _valid) = read_records(&wal, &mut catalog, version)?;

        let mut snap = Snapshot::empty(version, catalog);
        for (name, inst) in stored {
            snap.put(&name, Pin::new(Arc::new(inst)));
        }
        // Replay runs each op through the checks a live op passes. Values
        // are checked against the domains the whole WAL grew to, so the
        // compacted snapshot holds nothing its dictionary cannot decode.
        for record in records {
            snap.version = record.seq;
            Self::apply_op(&mut snap, &record.op)?;
        }

        // Compact: fold the replayed records into a fresh snapshot (this
        // also truncates the WAL, dropping any torn tail).
        let bytes = encode_snapshot(
            snap.version,
            &snap.catalog,
            snap.iter().map(|(n, i)| (n, &**i)),
        );
        storage.install_snapshot(&bytes).map_err(StoreError::Io)?;
        Ok(Self::from_snapshot(snap, Some(storage)))
    }

    /// Whether mutations are being logged to a durability backend.
    pub fn is_durable(&self) -> bool {
        lock_recover(&self.store).is_some()
    }

    /// The current snapshot. Cheap (`Arc` clone under a short lock); the
    /// returned view is immutable and survives any concurrent mutation.
    /// Poison-tolerant: snapshots are swapped whole, so a panicking
    /// writer cannot publish a torn one (locks recover from poison).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&lock_recover(&self.current))
    }

    /// The current snapshot version.
    pub fn version(&self) -> u64 {
        lock_recover(&self.current).version
    }

    /// Registers `observer` to run after every successful mutation, with
    /// the just-published snapshot. Observers run on the mutating thread,
    /// after the snapshot swap with the snapshot lock released, in
    /// registration order. An observer may read or even mutate the catalog
    /// (triggering nested notification), but must not subscribe from
    /// within. An observer stays registered for the catalog's lifetime.
    pub fn subscribe(&self, observer: SnapshotObserver) {
        lock_recover(&self.subscribers).push(observer);
    }

    /// Applies one [`CatalogOp`] — the single mutation entry point. The
    /// op is validated against a clone of the current snapshot, logged to
    /// the WAL when the catalog is durable (write-ahead: an op that fails
    /// to log is not published), and atomically swapped in.
    pub fn apply(&self, op: CatalogOp) -> Result<ApplyOutcome, CatalogError> {
        self.apply_with(|_| Ok(op))
    }

    /// Like [`apply`](Self::apply), but `build` constructs the op against
    /// a copy of the current value domains — it may intern constants and
    /// draw fresh nulls, and the grown domains are installed (and logged)
    /// together with the op. This is how wire-driven loads and patches
    /// bring new values into the catalog.
    pub fn apply_with(
        &self,
        build: impl FnOnce(&mut Catalog) -> Result<CatalogOp, CatalogError>,
    ) -> Result<ApplyOutcome, CatalogError> {
        let (published, outcome) = {
            let mut slot = lock_recover(&self.current);
            let mut next = Snapshot::clone(&slot);
            next.version += 1;
            let base_syms = next.catalog.interner().len();
            let op = build(&mut next.catalog)?;
            let outcome = Self::apply_op(&mut next, &op)?;
            // Write-ahead: the record hits the WAL before the swap, so a
            // logged op is always the next thing replay sees. An append
            // failure aborts the mutation (no swap); the partial record it
            // may have left behind is a torn tail recovery drops.
            if let Some(store) = lock_recover(&self.store).as_mut() {
                let domain = DomainDelta::capture(base_syms, &next.catalog);
                let record = encode_record(next.version, &domain, &op);
                store.append_wal(&record).map_err(StoreError::Io)?;
            }
            let next = Arc::new(next);
            *slot = Arc::clone(&next);
            (next, outcome)
        };
        // Hold the subscriber lock only to walk the list; observers that
        // mutate the catalog re-enter `current`, never `subscribers`.
        for observer in lock_recover(&self.subscribers).iter() {
            observer(&published);
        }
        Ok(outcome)
    }

    /// Validates `op` against `next` and mutates its instance map. Live
    /// mutations and WAL replay both come through here. A `Patch` is the
    /// one step that holds the old pin, the delta and the new instance
    /// together, so it brings built maps forward ([`Pin::patched`]).
    fn apply_op(next: &mut Snapshot, op: &CatalogOp) -> Result<ApplyOutcome, CatalogError> {
        let mut outcome = ApplyOutcome {
            version: next.version,
            instance: None,
            inserted: Vec::new(),
            existed: false,
        };
        // Every value must already mean something in this catalog's
        // domains, or it cannot be resolved — or logged faithfully.
        let syms = next.catalog.interner().len() as u32;
        let nulls = next.catalog.nulls_allocated();
        let foreign = |v: &Value| match v {
            Value::Const(s) => s.0 >= syms,
            Value::Null(n) => n.0 >= nulls,
        };
        let foreign_value = || CatalogError::ForeignValue {
            name: op.name().to_string(),
        };
        match op {
            CatalogOp::Put { name, instance } => {
                let expected = next.catalog.schema().len();
                if instance.num_relations() != expected {
                    return Err(CatalogError::SchemaMismatch {
                        expected,
                        found: instance.num_relations(),
                    });
                }
                if instance
                    .iter_all()
                    .any(|(_, t)| t.values().iter().any(foreign))
                {
                    return Err(foreign_value());
                }
                let mut inst = instance.clone();
                inst.set_name(name);
                let pin = Pin::new(Arc::new(inst));
                outcome.instance = Some(Arc::clone(&pin.instance));
                outcome.existed = next.put(name, pin);
            }
            CatalogOp::Patch { name, delta } => {
                if delta.ops.iter().any(|op| match op {
                    DeltaOp::Insert { values, .. } => values.iter().any(foreign),
                    DeltaOp::Modify { value, .. } => foreign(value),
                    DeltaOp::Delete { .. } => false,
                }) {
                    return Err(foreign_value());
                }
                let old = next
                    .pin(name)
                    .ok_or_else(|| CatalogError::UnknownInstance { name: name.clone() })?;
                let mut inst = Instance::clone(&old.instance);
                outcome.inserted = delta
                    .apply(&mut inst)
                    .map_err(|error| CatalogError::Delta {
                        name: name.clone(),
                        error,
                    })?;
                let pin = old.patched(inst, delta);
                outcome.instance = Some(Arc::clone(&pin.instance));
                outcome.existed = next.put(name, pin);
            }
            CatalogOp::Remove { name } => {
                outcome.existed = next.remove(name);
            }
        }
        Ok(outcome)
    }

    /// Registers (or replaces) an instance that was built against this
    /// catalog's value domains — either the `Catalog` passed to
    /// [`from_catalog`](Self::from_catalog) or one obtained from a
    /// previous snapshot. The instance is renamed to `name`. Thin wrapper
    /// over [`apply`](Self::apply) with [`CatalogOp::Put`].
    pub fn register(&self, name: &str, mut instance: Instance) -> Result<(), CatalogError> {
        instance.set_name(name);
        self.apply(CatalogOp::Put {
            name: name.to_string(),
            instance,
        })
        .map(drop)
    }

    /// Builds and registers an instance in one step: `build` runs against a
    /// copy of the current value domains (it may intern constants and draw
    /// fresh nulls), and the mutated domains are installed together with
    /// the instance — the copy-on-write path for wire-driven loads. Thin
    /// wrapper over [`apply_with`](Self::apply_with).
    pub fn register_with(
        &self,
        name: &str,
        build: impl FnOnce(&mut Catalog) -> Result<Instance, CatalogError>,
    ) -> Result<(), CatalogError> {
        self.apply_with(|catalog| {
            let mut instance = build(catalog)?;
            instance.set_name(name);
            Ok(CatalogOp::Put {
                name: name.to_string(),
                instance,
            })
        })
        .map(drop)
    }

    /// Applies a tuple-level delta to the named instance, publishing (and
    /// logging) the patched copy. `build` runs against a copy of the value
    /// domains so patch values may intern new constants or draw fresh
    /// nulls. Returns the outcome carrying the new pin and assigned
    /// tuple ids.
    pub fn patch(
        &self,
        name: &str,
        build: impl FnOnce(&mut Catalog) -> Result<Delta, CatalogError>,
    ) -> Result<ApplyOutcome, CatalogError> {
        self.apply_with(|catalog| {
            Ok(CatalogOp::Patch {
                name: name.to_string(),
                delta: build(catalog)?,
            })
        })
    }

    /// Loads an instance from a directory holding one `<relation>.csv` per
    /// schema relation (missing files leave that relation empty; a
    /// directory matching *no* relation is an error). Returns the number
    /// of tuples loaded.
    pub fn load_csv_dir(&self, name: &str, dir: &Path) -> Result<usize, CatalogError> {
        let csv = CsvOptions::default();
        let mut loaded = 0usize;
        self.register_with(name, |catalog| {
            let mut instance = Instance::new(name, catalog);
            let mut matched = 0usize;
            let rels: Vec<_> = catalog.schema().rel_ids().collect();
            for rel in rels {
                let rel_name = catalog.schema().relation(rel).name().to_string();
                let path = dir.join(format!("{rel_name}.csv"));
                let text = match std::fs::read_to_string(&path) {
                    Ok(text) => text,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(CatalogError::Io { path, error: e }),
                };
                matched += 1;
                loaded += read_csv_into(&text, catalog, &mut instance, rel, &csv)
                    .map_err(|error| CatalogError::Csv { path, error })?;
            }
            if matched == 0 {
                return Err(CatalogError::NoData {
                    dir: dir.to_path_buf(),
                });
            }
            Ok(instance)
        })?;
        Ok(loaded)
    }

    /// Removes an instance; returns whether it existed. Thin wrapper over
    /// [`apply`](Self::apply) with [`CatalogOp::Remove`]; a failed durable
    /// append is an error, not "did not exist".
    pub fn remove(&self, name: &str) -> Result<bool, CatalogError> {
        self.apply(CatalogOp::Remove {
            name: name.to_string(),
        })
        .map(|outcome| outcome.existed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::RelId;
    use ic_store::MemStorage;

    fn two_tuple_instance(cat: &mut Catalog, name: &str, a: &str, b: &str) -> Instance {
        let mut inst = Instance::new(name, cat);
        let (va, vb) = (cat.konst(a), cat.konst(b));
        let n = cat.fresh_null();
        inst.insert(RelId(0), vec![va, n]);
        inst.insert(RelId(0), vec![vb, va]);
        inst
    }

    fn catalog_with(names: &[&str]) -> ServeCatalog {
        let sc = ServeCatalog::new(Schema::single("R", &["A", "B"]));
        for name in names {
            sc.register_with(name, |cat| Ok(two_tuple_instance(cat, name, "a", "b")))
                .unwrap();
        }
        sc
    }

    #[test]
    fn snapshots_are_isolated_from_replacement() {
        let sc = catalog_with(&["left", "right"]);
        let before = sc.snapshot();
        assert_eq!(before.version, 2);
        let old_right = Arc::clone(before.get("right").unwrap());

        // Replace "right" with new content.
        sc.register_with("right", |cat| {
            Ok(two_tuple_instance(cat, "right", "x", "y"))
        })
        .unwrap();

        // The old snapshot still resolves the old instance…
        assert!(Arc::ptr_eq(before.get("right").unwrap(), &old_right));
        // …and a fresh snapshot sees the replacement at a bumped version.
        let after = sc.snapshot();
        assert_eq!(after.version, 3);
        assert!(!Arc::ptr_eq(after.get("right").unwrap(), &old_right));
        // Unchanged instances are shared, not copied.
        assert!(Arc::ptr_eq(
            after.get("left").unwrap(),
            before.get("left").unwrap()
        ));
    }

    #[test]
    fn failed_mutation_leaves_catalog_untouched() {
        let sc = catalog_with(&["only"]);
        let v = sc.version();
        let err = sc.load_csv_dir("bad", Path::new("/definitely/missing/dir"));
        assert!(matches!(err, Err(CatalogError::NoData { .. })));
        assert_eq!(sc.version(), v, "failed load must not bump the version");
        assert!(sc.snapshot().get("bad").is_none());
    }

    #[test]
    fn register_rejects_foreign_schema() {
        let sc = catalog_with(&[]);
        let mut other = Schema::new();
        other.add_relation(ic_model::RelationSchema::new("R", &["A"]));
        other.add_relation(ic_model::RelationSchema::new("S", &["B"]));
        let foreign_cat = Catalog::new(other);
        let foreign = Instance::new("f", &foreign_cat);
        assert!(matches!(
            sc.register("f", foreign),
            Err(CatalogError::SchemaMismatch {
                expected: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn load_csv_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "ic-serve-cat-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("R.csv"), "A,B\nVLDB,_N:x\nSIGMOD,1975\n").unwrap();

        let sc = catalog_with(&[]);
        let loaded = sc.load_csv_dir("conf", &dir).unwrap();
        assert_eq!(loaded, 2);
        let snap = sc.snapshot();
        let inst = snap.get("conf").unwrap();
        assert_eq!(inst.num_tuples(), 2);
        assert_eq!(inst.num_null_cells(), 1);
        assert_eq!(inst.name(), "conf");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_and_list() {
        let sc = catalog_with(&["a", "b"]);
        assert_eq!(sc.snapshot().names().collect::<Vec<_>>(), ["a", "b"]);
        assert!(sc.remove("a").unwrap());
        assert!(!sc.remove("a").unwrap());
        assert_eq!(sc.snapshot().len(), 1);
    }

    #[test]
    fn snapshot_iter_yields_name_ordered_pins() {
        let sc = catalog_with(&["b", "a"]);
        let snap = sc.snapshot();
        let pairs: Vec<(&str, &Arc<Instance>)> = snap.iter().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, "a");
        assert_eq!(pairs[1].0, "b");
        assert!(Arc::ptr_eq(pairs[1].1, snap.get("b").unwrap()));
    }

    #[test]
    fn subscribers_see_published_snapshots() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let sc = catalog_with(&[]);
        let seen = Arc::new(AtomicU64::new(0));
        let seen_in_observer = Arc::clone(&seen);
        sc.subscribe(Box::new(move |snap| {
            seen_in_observer.store(snap.version, Ordering::SeqCst);
        }));

        sc.register_with("n", |cat| Ok(two_tuple_instance(cat, "n", "a", "b")))
            .unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), sc.version());

        // Failed mutations publish nothing.
        let before = seen.load(Ordering::SeqCst);
        let _ = sc.load_csv_dir("bad", Path::new("/definitely/missing/dir"));
        assert_eq!(seen.load(Ordering::SeqCst), before);

        assert!(sc.remove("n").unwrap());
        assert_eq!(seen.load(Ordering::SeqCst), sc.version());
    }

    #[test]
    fn apply_reports_outcomes() {
        use ic_model::AttrId;

        let sc = catalog_with(&["a"]);
        // Put over an existing name reports existed = true.
        let out = sc
            .apply_with(|cat| {
                Ok(CatalogOp::Put {
                    name: "a".into(),
                    instance: two_tuple_instance(cat, "a", "p", "q"),
                })
            })
            .unwrap();
        assert!(out.existed);
        let pin = out.instance.expect("put returns the new pin");
        assert!(Arc::ptr_eq(&pin, sc.snapshot().get("a").unwrap()));

        // Patch returns assigned tuple ids and the patched pin.
        let out = sc
            .patch("a", |cat| {
                let v = cat.konst("patched");
                Ok(Delta::new(vec![
                    ic_core::DeltaOp::Insert {
                        rel: RelId(0),
                        values: vec![v, v],
                    },
                    ic_core::DeltaOp::Modify {
                        id: TupleId(0),
                        attr: AttrId(0),
                        value: v,
                    },
                ]))
            })
            .unwrap();
        assert_eq!(out.inserted.len(), 1);
        let patched = out.instance.unwrap();
        assert_eq!(patched.num_tuples(), 3);
        assert!(Arc::ptr_eq(&patched, sc.snapshot().get("a").unwrap()));

        // Patch of a missing name fails without a version bump.
        let v = sc.version();
        assert!(matches!(
            sc.patch("ghost", |_| Ok(Delta::new(vec![]))),
            Err(CatalogError::UnknownInstance { .. })
        ));
        assert_eq!(sc.version(), v);

        // Remove reports existence.
        assert!(
            sc.apply(CatalogOp::Remove { name: "a".into() })
                .unwrap()
                .existed
        );
        assert!(
            !sc.apply(CatalogOp::Remove { name: "a".into() })
                .unwrap()
                .existed
        );
    }

    #[test]
    fn put_rejects_foreign_values() {
        let sc = catalog_with(&[]);
        // Built against a *different* catalog over the same schema: its
        // syms mean nothing here.
        let mut other = Catalog::new(Schema::single("R", &["A", "B"]));
        let foreign = two_tuple_instance(&mut other, "f", "a", "b");
        assert!(matches!(
            sc.register("f", foreign),
            Err(CatalogError::ForeignValue { .. })
        ));
    }

    #[test]
    fn durable_catalog_recovers_wal_ops_across_reopen() {
        let schema = || Schema::single("R", &["A", "B"]);
        let store = Arc::new(Mutex::new(MemStorage::new()));

        let sc = ServeCatalog::durable(schema(), Box::new(Arc::clone(&store))).unwrap();
        assert!(sc.is_durable());
        sc.register_with("keep", |cat| Ok(two_tuple_instance(cat, "keep", "a", "b")))
            .unwrap();
        sc.register_with("gone", |cat| Ok(two_tuple_instance(cat, "gone", "c", "d")))
            .unwrap();
        sc.patch("keep", |cat| {
            let v = cat.konst("patched");
            Ok(Delta::new(vec![ic_core::DeltaOp::Insert {
                rel: RelId(0),
                values: vec![v, v],
            }]))
        })
        .unwrap();
        assert!(sc.remove("gone").unwrap());
        let before = sc.snapshot();
        drop(sc);

        // Reopen from the same buffers: same names, same bytes, and the
        // WAL has been compacted into the snapshot.
        let sc2 = ServeCatalog::durable(schema(), Box::new(Arc::clone(&store))).unwrap();
        let after = sc2.snapshot();
        assert_eq!(after.version, before.version);
        assert_eq!(
            after.names().collect::<Vec<_>>(),
            before.names().collect::<Vec<_>>()
        );
        let (b, a) = (before.get("keep").unwrap(), after.get("keep").unwrap());
        assert_eq!(a.num_tuples(), b.num_tuples());
        assert_eq!(a.num_tuples(), 3);
        for ((rb, tb), (ra, ta)) in b.iter_all().zip(a.iter_all()) {
            assert_eq!(rb, ra);
            assert_eq!(tb.id(), ta.id());
            assert_eq!(tb.values(), ta.values());
        }
        assert_eq!(
            after.catalog.interner().len(),
            before.catalog.interner().len()
        );
        assert!(store.lock().unwrap().wal_bytes().is_empty(), "compacted");

        // A mismatched schema is rejected at open.
        drop(sc2);
        assert!(matches!(
            ServeCatalog::durable(
                Schema::single("Other", &["X"]),
                Box::new(Arc::clone(&store))
            ),
            Err(CatalogError::StoredSchemaMismatch)
        ));
    }

    /// A one-cell patch writing `value` over tuple 0's first attribute.
    fn set_first_cell(sc: &ServeCatalog, name: &str, value: &str) -> ApplyOutcome {
        sc.patch(name, |cat| {
            Ok(Delta::new(vec![ic_core::DeltaOp::Modify {
                id: TupleId(0),
                attr: ic_model::AttrId(0),
                value: cat.konst(value),
            }]))
        })
        .unwrap()
    }

    #[test]
    fn patch_with_known_constant_shares_interner_and_untouched_pins() {
        let sc = catalog_with(&["a", "b", "c"]);
        let before = sc.snapshot();
        set_first_cell(&sc, "b", "a");
        let after = sc.snapshot();
        assert_eq!(after.version, before.version + 1);
        let interned = before.catalog.interner().len();
        assert_eq!(after.catalog.interner().len(), interned);
        for sym in (0..interned as u32).map(ic_model::Sym) {
            assert!(
                std::ptr::eq(before.catalog.resolve(sym), after.catalog.resolve(sym)),
                "the interner was copied"
            );
        }
        for name in ["a", "c"] {
            assert!(Arc::ptr_eq(
                before.get(name).unwrap(),
                after.get(name).unwrap()
            ));
        }
        assert!(!Arc::ptr_eq(
            before.get("b").unwrap(),
            after.get("b").unwrap()
        ));
    }

    #[test]
    fn patch_with_new_constant_leaves_previous_interner_as_it_was() {
        let sc = catalog_with(&["a", "b"]);
        let before = sc.snapshot();
        let strings: Vec<(String, *const u8)> = (0..before.catalog.interner().len() as u32)
            .map(|i| {
                let s = before.catalog.resolve(ic_model::Sym(i));
                (s.to_string(), s.as_ptr())
            })
            .collect();
        set_first_cell(&sc, "a", "brand-new");
        let after = sc.snapshot();
        assert_eq!(after.catalog.interner().len(), strings.len() + 1);
        assert!(after.catalog.interner().get("brand-new").is_some());
        assert_eq!(before.catalog.interner().len(), strings.len());
        assert_eq!(before.catalog.interner().get("brand-new"), None);
        for (i, (text, ptr)) in strings.iter().enumerate() {
            let s = before.catalog.resolve(ic_model::Sym(i as u32));
            assert_eq!((s, s.as_ptr()), (text.as_str(), *ptr));
            assert_eq!(after.catalog.resolve(ic_model::Sym(i as u32)), text);
        }
        assert!(Arc::ptr_eq(
            before.get("b").unwrap(),
            after.get("b").unwrap()
        ));
    }

    #[test]
    fn diff_pins_reports_exactly_the_changed_names() {
        let sc = catalog_with(&["a", "b", "c", "d"]);
        let before = sc.snapshot();
        set_first_cell(&sc, "b", "a");
        sc.remove("c").unwrap();
        sc.register_with("e", |cat| Ok(two_tuple_instance(cat, "e", "a", "b")))
            .unwrap();
        sc.register_with("0", |cat| Ok(two_tuple_instance(cat, "0", "a", "b")))
            .unwrap();
        let after = sc.snapshot();
        let mut seen = Vec::new();
        diff_pins(before.pins(), after.pins(), |name, pin| {
            if let Some(pin) = pin {
                assert!(Arc::ptr_eq(pin.instance(), after.get(name).unwrap()));
            }
            seen.push((name.to_string(), pin.is_some()));
        });
        let want = [("0", true), ("b", true), ("c", false), ("e", true)];
        assert_eq!(seen, want.map(|(n, live)| (n.to_string(), live)).to_vec());
        diff_pins(after.pins(), after.pins(), |name, _| {
            panic!("{name} reported against itself")
        });
    }

    /// Step `step` of a three-patch chain over a two-tuple instance
    /// (tuple ids 0 and 1): inserts, deletes, and modifies that turn a
    /// null into a constant and a constant into a null.
    fn patch_ops(cat: &mut Catalog, step: usize) -> Vec<DeltaOp> {
        let (rel, attr) = (RelId(0), ic_model::AttrId);
        match step {
            0 => vec![
                DeltaOp::Insert {
                    rel,
                    values: vec![cat.konst("p"), cat.fresh_null()],
                },
                DeltaOp::Modify {
                    id: TupleId(0),
                    attr: attr(1),
                    value: cat.konst("q"),
                },
                DeltaOp::Delete { id: TupleId(1) },
            ],
            1 => vec![
                DeltaOp::Modify {
                    id: TupleId(0),
                    attr: attr(0),
                    value: cat.fresh_null(),
                },
                DeltaOp::Insert {
                    rel,
                    values: vec![cat.konst("a"), cat.konst("q")],
                },
                DeltaOp::Delete { id: TupleId(2) },
            ],
            _ => vec![
                DeltaOp::Modify {
                    id: TupleId(3),
                    attr: attr(1),
                    value: cat.konst("b"),
                },
                DeltaOp::Insert {
                    rel,
                    values: vec![cat.fresh_null(), cat.fresh_null()],
                },
            ],
        }
    }

    #[test]
    fn patch_repairs_built_maps_into_the_new_pin() {
        let sc = catalog_with(&["built", "cold"]);
        sc.snapshot().pin("built").unwrap().maps_or_build();
        for step in 0..3 {
            for name in ["built", "cold"] {
                sc.patch(name, |cat| Ok(Delta::new(patch_ops(cat, step))))
                    .unwrap();
            }
            let snap = sc.snapshot();
            let pin = snap.pin("built").unwrap();
            let fresh = InstanceSigMaps::build(pin.instance(), &SignatureConfig::default());
            assert_eq!(**pin.maps().expect("repaired"), fresh, "step {step}");
            assert!(snap.pin("cold").unwrap().maps().is_none(), "step {step}");
        }
    }

    #[test]
    fn replay_builds_no_maps() {
        let store = Arc::new(Mutex::new(MemStorage::new()));
        let sc = reopen(&store).unwrap();
        for name in ["a", "b"] {
            sc.register_with(name, |cat| Ok(two_tuple_instance(cat, name, "x", "y")))
                .unwrap();
        }
        sc.snapshot().pin("a").unwrap().maps_or_build();
        for step in 0..3 {
            sc.patch("a", |cat| Ok(Delta::new(patch_ops(cat, step))))
                .unwrap();
        }
        assert!(sc.snapshot().pin("a").unwrap().maps().is_some());
        drop(sc);

        let sink = Arc::new(ic_obs::MemorySink::new());
        let reopened = {
            let _obs = ic_obs::observe("open", Arc::clone(&sink) as Arc<dyn ic_obs::Sink>);
            reopen(&store).unwrap().snapshot()
        };
        let report = sink.last().expect("one report");
        assert!(report.find_span(&["signature.sigmap_build"]).is_none());
        assert_eq!(reopened.len(), 2);
        for (name, _) in reopened.iter() {
            assert!(reopened.pin(name).unwrap().maps().is_none(), "{name}");
        }
    }

    #[test]
    fn maps_are_freed_with_the_last_snapshot_holding_their_pin() {
        let names = ["kept", "put", "patched", "removed"];
        let sc = catalog_with(&names);
        let old = sc.snapshot();
        let [kept, put, patched, removed] =
            names.map(|name| Arc::downgrade(old.pin(name).unwrap().maps_or_build()));
        sc.register_with("put", |cat| Ok(two_tuple_instance(cat, "put", "x", "y")))
            .unwrap();
        set_first_cell(&sc, "patched", "z");
        assert!(sc.remove("removed").unwrap());

        let new = sc.snapshot();
        let shared = new.pin("kept").unwrap().maps().unwrap();
        assert!(Arc::ptr_eq(&kept.upgrade().unwrap(), shared));
        let gone = [put, patched, removed];
        assert!(
            gone.iter().all(|w| w.upgrade().is_some()),
            "old still holds them"
        );
        drop(old);
        assert!(gone.iter().all(|w| w.upgrade().is_none()));
        assert!(kept.upgrade().is_some());
    }

    /// A shared in-memory backend whose `append_wal` fails cleanly (writes
    /// nothing) on its `fail_at`-th call, counting from 0.
    struct FailingAppend {
        mem: Arc<Mutex<MemStorage>>,
        calls: usize,
        fail_at: usize,
    }

    impl Storage for FailingAppend {
        fn read_snapshot(&mut self) -> std::io::Result<Option<Vec<u8>>> {
            self.mem.read_snapshot()
        }

        fn install_snapshot(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.mem.install_snapshot(bytes)
        }

        fn read_wal(&mut self) -> std::io::Result<Vec<u8>> {
            self.mem.read_wal()
        }

        fn append_wal(&mut self, record: &[u8]) -> std::io::Result<()> {
            self.calls += 1;
            if self.calls - 1 == self.fail_at {
                return Err(std::io::Error::other("injected append failure"));
            }
            self.mem.append_wal(record)
        }
    }

    /// Step `step` of a short put/patch/remove script; every step that
    /// succeeds appends exactly one WAL record.
    fn script_step(sc: &ServeCatalog, step: usize) -> Result<(), CatalogError> {
        let patch = |name: &str, value: &'static str| {
            sc.patch(name, |cat| {
                Ok(Delta::new(vec![
                    ic_core::DeltaOp::Modify {
                        id: TupleId(0),
                        attr: ic_model::AttrId(0),
                        value: cat.konst(value),
                    },
                    ic_core::DeltaOp::Insert {
                        rel: RelId(0),
                        values: vec![cat.fresh_null(), cat.konst(value)],
                    },
                ]))
            })
            .map(drop)
        };
        let put = |name: &str, a: &str, b: &str| {
            sc.register_with(name, |cat| Ok(two_tuple_instance(cat, name, a, b)))
        };
        match step {
            0 => put("a", "x", "y"),
            1 => put("b", "x", "z"),
            2 => patch("a", "new-in-patch"),
            3 => patch("b", "x"),
            4 => sc.remove("a").map(drop),
            5 => put("c", "z", "new-in-put"),
            6 => patch("c", "y"),
            7 => sc.remove("b").map(drop),
            _ => unreachable!("the script has 8 steps"),
        }
    }

    fn snapshot_bytes(snap: &Snapshot) -> Vec<u8> {
        encode_snapshot(
            snap.version,
            &snap.catalog,
            snap.iter().map(|(n, i)| (n, &**i)),
        )
    }

    #[test]
    fn failed_wal_append_leaves_published_snapshot_intact() {
        let schema = || Schema::single("R", &["A", "B"]);
        const STEPS: usize = 8;
        for fail_at in 0..STEPS {
            let mem = Arc::new(Mutex::new(MemStorage::new()));
            let storage = FailingAppend {
                mem: Arc::clone(&mem),
                calls: 0,
                fail_at,
            };
            let sc = ServeCatalog::durable(schema(), Box::new(storage)).unwrap();
            // The acknowledged ops alone, applied without a WAL.
            let reference = ServeCatalog::new(schema());
            for step in 0..STEPS {
                let before = sc.snapshot();
                let result = script_step(&sc, step);
                if step == fail_at {
                    assert!(
                        matches!(result, Err(CatalogError::Store(StoreError::Io(_)))),
                        "step {step}: {result:?}"
                    );
                    let after = sc.snapshot();
                    assert!(Arc::ptr_eq(&before, &after), "step {step} published");
                    assert_eq!(after.version, before.version);
                    assert_eq!(
                        after.catalog.interner().len(),
                        before.catalog.interner().len()
                    );
                    for ((_, b), (_, a)) in before.iter().zip(after.iter()) {
                        assert!(Arc::ptr_eq(b, a));
                    }
                } else {
                    assert_eq!(
                        result.is_ok(),
                        script_step(&reference, step).is_ok(),
                        "fail_at {fail_at}, step {step}"
                    );
                }
            }
            let live = snapshot_bytes(&sc.snapshot());
            assert_eq!(live, snapshot_bytes(&reference.snapshot()));
            drop(sc);

            let (snap, wal) = {
                let mem = mem.lock().unwrap();
                (
                    mem.snapshot_bytes().map(<[u8]>::to_vec),
                    mem.wal_bytes().to_vec(),
                )
            };
            let reopened =
                ServeCatalog::durable(schema(), Box::new(MemStorage::from_parts(snap, wal)))
                    .unwrap();
            assert_eq!(
                snapshot_bytes(&reopened.snapshot()),
                live,
                "fail_at {fail_at}: recovery differs from the acknowledged ops"
            );
        }
    }

    fn reopen(store: &Arc<Mutex<MemStorage>>) -> Result<ServeCatalog, CatalogError> {
        ServeCatalog::durable(
            Schema::single("R", &["A", "B"]),
            Box::new(Arc::clone(store)),
        )
    }

    /// A durable catalog holding `a`, its storage, and two patches whose
    /// values mean nothing in its domains: a constant past the interner's
    /// end, and a null past the null watermark.
    fn durable_with_foreign_patches() -> (ServeCatalog, Arc<Mutex<MemStorage>>, [Delta; 2]) {
        let store = Arc::new(Mutex::new(MemStorage::new()));
        let sc = reopen(&store).unwrap();
        sc.register_with("a", |cat| Ok(two_tuple_instance(cat, "a", "x", "y")))
            .unwrap();
        let snap = sc.snapshot();
        let sym = ic_model::Sym(snap.catalog.interner().len() as u32 + 1_000_000);
        let null = ic_model::NullId(snap.catalog.nulls_allocated() + 5);
        let patches = [
            vec![ic_core::DeltaOp::Modify {
                id: TupleId(0),
                attr: ic_model::AttrId(0),
                value: Value::Const(sym),
            }],
            vec![ic_core::DeltaOp::Insert {
                rel: RelId(0),
                values: vec![Value::Const(ic_model::Sym(0)), Value::Null(null)],
            }],
        ];
        (sc, store, patches.map(Delta::new))
    }

    #[test]
    fn patch_rejects_foreign_values_and_the_catalog_still_reopens() {
        let (sc, store, patches) = durable_with_foreign_patches();
        let before = snapshot_bytes(&sc.snapshot());
        for delta in patches {
            let result = sc.patch("a", |_| Ok(delta));
            assert!(matches!(result, Err(CatalogError::ForeignValue { .. })));
        }
        drop(sc);
        // Nothing was logged: the open that compacts and the one after it
        // both recover the catalog as it was.
        for _ in 0..2 {
            assert_eq!(snapshot_bytes(&reopen(&store).unwrap().snapshot()), before);
        }
    }

    #[test]
    fn replay_rejects_a_logged_patch_with_foreign_values() {
        let (sc, store, [delta, _]) = durable_with_foreign_patches();
        // A checksum-valid record the live path would have refused.
        let snap = sc.snapshot();
        let domain = DomainDelta::capture(snap.catalog.interner().len(), &snap.catalog);
        let op = CatalogOp::Patch {
            name: "a".into(),
            delta,
        };
        let record = encode_record(snap.version + 1, &domain, &op);
        store.lock().unwrap().append_wal(&record).unwrap();
        drop(sc);
        let reopened = reopen(&store);
        assert!(matches!(reopened, Err(CatalogError::ForeignValue { .. })));
    }

    #[test]
    fn catalog_survives_poisoned_snapshot_lock() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let sc = catalog_with(&["a"]);
        // Poison the snapshot mutex by panicking while holding it.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = sc.current.lock().unwrap();
            panic!("request handler dies mid-lock");
        }));
        assert!(sc.current.is_poisoned());
        // Reads and writes keep working: snapshots are swapped whole, so
        // the poisoned state is still consistent.
        assert_eq!(sc.snapshot().len(), 1);
        sc.register_with("b", |cat| Ok(two_tuple_instance(cat, "b", "x", "y")))
            .unwrap();
        assert_eq!(sc.snapshot().len(), 2);
    }
}
