//! Poison-tolerant locking for the serve layer.
//!
//! Every lock in ic-serve guards state that is consistent at all times:
//! catalog snapshots are swapped as whole `Arc`s, search-index entries are
//! built first and swapped in or out whole (and the version the index
//! reflects moves only when its sync is done), queue senders are cloned or
//! taken whole. A panic while holding such a lock therefore cannot leave
//! torn state —
//! which makes `std`'s poisoning pure downside here: one panicking worker
//! would turn every subsequent `.lock().unwrap()` into a panic and take
//! the whole server down instead of degrading to a typed error.
//!
//! [`lock_recover`] (and [`read_recover`] / [`write_recover`] for the one
//! `RwLock`, the search index's) recover the guard from a poisoned lock
//! and are the only way serve code takes a lock.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquires `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquires `l` shared, recovering the guard if a writer panicked.
pub(crate) fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Acquires `l` exclusively, recovering the guard if a writer panicked.
pub(crate) fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Mutex, RwLock};

    #[test]
    fn recovers_after_holder_panics() {
        let m = Mutex::new(vec![1, 2, 3]);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("holder dies");
        }));
        assert!(m.is_poisoned());
        assert_eq!(lock_recover(&m).len(), 3);
        lock_recover(&m).push(4);
        assert_eq!(lock_recover(&m).len(), 4);
    }

    #[test]
    fn recovers_after_rwlock_writer_panics() {
        let l = RwLock::new(vec![1, 2, 3]);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = l.write().unwrap();
            panic!("writer dies");
        }));
        assert!(l.is_poisoned());
        assert_eq!(read_recover(&l).len(), 3);
        write_recover(&l).push(4);
        assert_eq!(*read_recover(&l), [1, 2, 3, 4]);
    }
}
