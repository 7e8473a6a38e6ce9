//! The [`Storage`] trait — where snapshot and WAL bytes live — with an
//! in-memory backend for tests and a file backend for production.
//!
//! The trait deliberately traffics in opaque byte buffers: encoding and
//! recovery rules live in [`crate::snapshot`] and [`crate::wal`], so a
//! backend only has to answer four questions — read the snapshot, read
//! the WAL, append one framed record durably, and atomically install a
//! new snapshot (which truncates the WAL, i.e. compaction).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// A durability backend for the catalog: one snapshot blob plus an
/// append-only WAL byte stream.
///
/// Contract: `append_wal` must be durable (flushed) when it returns;
/// `install_snapshot` must atomically replace the snapshot **and**
/// truncate the WAL — a crash between the two must never leave a new
/// snapshot paired with the old WAL, or replay would double-apply ops.
pub trait Storage: Send {
    /// Reads the current snapshot bytes, or `None` if none was installed.
    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Atomically installs `bytes` as the new snapshot and truncates the
    /// WAL (compaction).
    fn install_snapshot(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Reads the whole WAL byte stream (empty if nothing was appended).
    fn read_wal(&mut self) -> io::Result<Vec<u8>>;

    /// Durably appends one framed record to the WAL.
    fn append_wal(&mut self, record: &[u8]) -> io::Result<()>;
}

/// Volatile in-memory storage for tests: byte-for-byte the same contract
/// as [`FileStorage`], plus accessors for crash simulation (snapshot the
/// buffers, truncate the WAL mid-record, reopen from the copies).
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    snapshot: Option<Vec<u8>>,
    wal: Vec<u8>,
}

impl MemStorage {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates storage from captured buffers — the crash-simulation
    /// entry point: pair a copied snapshot with a truncated WAL and
    /// reopen.
    pub fn from_parts(snapshot: Option<Vec<u8>>, wal: Vec<u8>) -> Self {
        Self { snapshot, wal }
    }

    /// The current snapshot bytes, if any.
    pub fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.snapshot.as_deref()
    }

    /// The current WAL bytes.
    pub fn wal_bytes(&self) -> &[u8] {
        &self.wal
    }
}

impl Storage for MemStorage {
    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.snapshot.clone())
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.snapshot = Some(bytes.to_vec());
        self.wal.clear();
        Ok(())
    }

    fn read_wal(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.wal.clone())
    }

    fn append_wal(&mut self, record: &[u8]) -> io::Result<()> {
        self.wal.extend_from_slice(record);
        Ok(())
    }
}

/// A shared handle to in-memory storage: lets a test hand ownership of
/// the backend to a catalog while keeping a handle to inspect (or
/// crash-copy) the buffers afterwards.
impl Storage for std::sync::Arc<std::sync::Mutex<MemStorage>> {
    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.lock().unwrap().read_snapshot()
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.lock().unwrap().install_snapshot(bytes)
    }

    fn read_wal(&mut self) -> io::Result<Vec<u8>> {
        self.lock().unwrap().read_wal()
    }

    fn append_wal(&mut self, record: &[u8]) -> io::Result<()> {
        self.lock().unwrap().append_wal(record)
    }
}

/// File-backed storage: `catalog.snap` + `catalog.wal` inside one data
/// directory.
///
/// Snapshot installs write to a temp file, fsync, and rename over the old
/// snapshot (the commit point), then truncate the WAL. The catalog only
/// compacts at open time, before any appends, so a crash between rename
/// and truncate leaves a new snapshot next to a WAL of already-folded
/// records — the next open replays them onto the snapshot they came
/// from, which re-produces the same state (ops are deterministic and the
/// domain-delta base checks make an out-of-order replay fail loudly
/// rather than corrupt silently).
///
/// A failed append is rolled back: the WAL is truncated to its length
/// after the last acknowledged append, so a later record never lands
/// behind torn bytes that would stop recovery short of it. If even the
/// truncate fails, every later append fails until the storage is
/// reopened.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// The open WAL and its length after the last acknowledged append.
    wal: Option<(File, u64)>,
    /// A failed append whose bytes could not be truncated away.
    torn: bool,
    /// Test hook: the next append writes only this many bytes of its
    /// record, then fails.
    #[cfg(test)]
    short_write: Option<usize>,
}

const SNAP_FILE: &str = "catalog.snap";
const WAL_FILE: &str = "catalog.wal";

impl FileStorage {
    /// Opens (creating if needed) the data directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            wal: None,
            torn: false,
            #[cfg(test)]
            short_write: None,
        })
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn wal_handle(&mut self) -> io::Result<&mut (File, u64)> {
        if self.wal.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(WAL_FILE))?;
            let len = file.metadata()?.len();
            self.wal = Some((file, len));
        }
        Ok(self.wal.as_mut().expect("just opened"))
    }

    /// Writes `record` at the end of the WAL and syncs it.
    fn write_record(&mut self, record: &[u8]) -> io::Result<()> {
        #[cfg(test)]
        let short_write = self.short_write.take();
        let (file, _) = self.wal_handle()?;
        #[cfg(test)]
        if let Some(cut) = short_write {
            file.write_all(&record[..cut])?;
            return Err(io::Error::other("injected short write"));
        }
        file.write_all(record)?;
        file.sync_data()
    }

    /// Best-effort directory fsync so renames survive power loss (no-op
    /// where directories cannot be opened for sync).
    fn sync_dir(&self) {
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

impl Storage for FileStorage {
    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.dir.join(SNAP_FILE)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!("{SNAP_FILE}.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join(SNAP_FILE))?;
        self.sync_dir();
        // Truncate the WAL now that its records are folded in; the handle
        // is reopened lazily in append mode on the next append.
        let wal = File::create(self.dir.join(WAL_FILE))?;
        wal.sync_all()?;
        self.wal = None;
        self.torn = false;
        Ok(())
    }

    fn read_wal(&mut self) -> io::Result<Vec<u8>> {
        match File::open(self.dir.join(WAL_FILE)) {
            Ok(mut f) => {
                let mut bytes = Vec::new();
                f.read_to_end(&mut bytes)?;
                Ok(bytes)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append_wal(&mut self, record: &[u8]) -> io::Result<()> {
        if self.torn {
            return Err(io::Error::other(
                "the WAL holds a failed append that could not be rolled back; reopen the storage",
            ));
        }
        let written = self.write_record(record);
        // No WAL handle means opening it failed, before any byte was written.
        let Some((file, len)) = self.wal.as_mut() else {
            return written;
        };
        match written {
            Ok(()) => {
                *len += record.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.torn = file.set_len(*len).is_err();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ic-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exercise(storage: &mut dyn Storage) {
        assert_eq!(storage.read_snapshot().unwrap(), None);
        assert!(storage.read_wal().unwrap().is_empty());

        storage.append_wal(b"rec1").unwrap();
        storage.append_wal(b"rec2").unwrap();
        assert_eq!(storage.read_wal().unwrap(), b"rec1rec2");

        storage.install_snapshot(b"snapA").unwrap();
        assert_eq!(
            storage.read_snapshot().unwrap().as_deref(),
            Some(&b"snapA"[..])
        );
        assert!(
            storage.read_wal().unwrap().is_empty(),
            "install truncates WAL"
        );

        storage.append_wal(b"rec3").unwrap();
        assert_eq!(storage.read_wal().unwrap(), b"rec3");
        storage.install_snapshot(b"snapB").unwrap();
        assert_eq!(
            storage.read_snapshot().unwrap().as_deref(),
            Some(&b"snapB"[..])
        );
        assert!(storage.read_wal().unwrap().is_empty());
    }

    /// A failed append leaves no bytes behind: at every cut point of a
    /// record (all of it written, then a failed sync, included), the append
    /// fails, a later append succeeds, and reopening recovers exactly the
    /// acknowledged records.
    #[test]
    fn failed_append_is_rolled_back_at_every_cut_point() {
        use crate::{encode_record, read_records, CatalogOp, DomainDelta};
        use ic_model::{Catalog, Schema};

        let catalog = || Catalog::new(Schema::single("R", &["A"]));
        let record = |seq: u64, name: &str| {
            let op = CatalogOp::Remove { name: name.into() };
            encode_record(seq, &DomainDelta::capture(0, &catalog()), &op)
        };
        let (first, torn, later) = (record(1, "first"), record(2, "torn"), record(3, "later"));
        let dir = temp_dir("torn-append");
        for cut in 0..=torn.len() {
            let _ = std::fs::remove_dir_all(&dir);
            let mut storage = FileStorage::open(&dir).unwrap();
            storage.append_wal(&first).unwrap();
            storage.short_write = Some(cut);
            assert!(storage.append_wal(&torn).is_err(), "cut {cut}");
            storage.append_wal(&later).unwrap();

            let wal = FileStorage::open(&dir).unwrap().read_wal().unwrap();
            assert_eq!(wal, [&first[..], &later[..]].concat(), "cut {cut}");
            let (records, _) = read_records(&wal, &mut catalog(), 0).unwrap();
            let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
            assert_eq!(seqs, [1, 3], "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_storage_contract() {
        exercise(&mut MemStorage::new());
    }

    #[test]
    fn file_storage_contract_and_reopen() {
        let dir = temp_dir("contract");
        exercise(&mut FileStorage::open(&dir).unwrap());

        // A fresh handle over the same directory sees the state.
        let mut reopened = FileStorage::open(&dir).unwrap();
        assert_eq!(
            reopened.read_snapshot().unwrap().as_deref(),
            Some(&b"snapB"[..])
        );
        assert!(reopened.read_wal().unwrap().is_empty());
        reopened.append_wal(b"later").unwrap();
        assert_eq!(reopened.read_wal().unwrap(), b"later");

        std::fs::remove_dir_all(&dir).ok();
    }
}
