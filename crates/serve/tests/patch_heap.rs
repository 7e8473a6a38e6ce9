//! Patches beside searches hold no memory per patch: a server over a
//! durable ~1,000-instance lake runs one-cell `patch` + `search` cycles,
//! and the bytes live on the heap after 2,000 cycles stay within 1% of
//! those after 200. Each cycle replaces one catalog pin, repairs its
//! signature maps, appends a WAL record and makes the next search re-sync
//! one index entry, so a patch that left an old pin, a map copy or index
//! garbage behind would grow the count by its size.
//!
//! Two things move the count without holding anything, so the cycles
//! avoid them. Every odd cycle restores the cell the even one before it
//! changed, so at both readings the catalog holds the lake as generated:
//! patches that only drew values from the payload pool would shrink the
//! instances' constant domains. And the cycles patch the first 100
//! instances in turn, so each has been patched once by the first reading:
//! the first patch of an instance lowers the count (with targets drawn
//! from the whole lake, it fell 1.1% from cycle 200 to 2,000).
//!
//! A test binary of its own: it counts every allocation of the process
//! with a `#[global_allocator]`, so no other test may run beside it.

use ic_datagen::{generate_lake, LakeParams};
use ic_model::Value;
use ic_serve::{
    AttrRef, Client, CompareOptions, PatchOp, PatchValue, ServeCatalog, Server, ServerConfig,
};
use ic_store::{encode_snapshot, FileStorage, Storage};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const CLUSTERS: usize = 250;
const VERSIONS: usize = 4;
const ARITY: usize = 6;
/// The lake generator's per-column payload vocabulary: patch values are
/// drawn from it, so the catalog's interner never grows.
const PAYLOAD_POOL: usize = 7;
/// The instances the cycles patch.
const PATCHED: usize = 100;

/// One payload cell of an instance: tuple id, attribute and value.
type Cell = (u32, usize, PatchValue);

#[test]
fn live_heap_stays_flat_across_patch_and_search_cycles() {
    let lake = generate_lake(&LakeParams {
        clusters: CLUSTERS,
        versions_per_cluster: VERSIONS,
        rows: 16,
        arity: ARITY,
        ..LakeParams::default()
    });
    let dir = std::env::temp_dir().join(format!("ic-serve-patch-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut storage = FileStorage::open(&dir).unwrap();
    let named = lake.instances.iter().map(|i| (i.name(), i));
    storage
        .install_snapshot(&encode_snapshot(1, &lake.catalog, named))
        .unwrap();
    let schema = lake.catalog.schema().clone();
    let catalog = Arc::new(ServeCatalog::durable(schema, Box::new(storage)).unwrap());
    // The payload cells of each patched instance: a one-cell patch keeps
    // its tuple's id.
    let cells: Vec<Vec<Cell>> = lake.instances[..PATCHED]
        .iter()
        .map(|i| {
            let mut cells = Vec::new();
            for (_, t) in i.iter_all() {
                for (attr, &value) in t.values().iter().enumerate().skip(1) {
                    let value = match value {
                        Value::Const(sym) => {
                            PatchValue::Const(lake.catalog.resolve(sym).to_string())
                        }
                        Value::Null(id) => PatchValue::Null(id.0),
                    };
                    cells.push((t.id().0, attr, value));
                }
            }
            cells
        })
        .collect();
    let names: Vec<String> = lake.instances[..PATCHED]
        .iter()
        .map(|i| i.name().to_string())
        .collect();
    drop(lake);

    let server = Server::start(Arc::clone(&catalog), "127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port");
    let mut client = Client::new(server.local_addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let patch_and_search = |client: &mut Client, name: &str, (tuple, attr, value): Cell| {
        let op = PatchOp::Modify {
            tuple,
            attr: AttrRef::Index(attr as u16),
            value,
        };
        client.patch(name, vec![op]).unwrap();
        let found = client.search(name, 10, CompareOptions::default()).unwrap();
        assert_eq!(found.hits[0].name, name, "the patched query finds itself");
    };
    // Two cycles: one cell of the next instance to a payload-pool value,
    // then back.
    let mut two_cycles = |client: &mut Client, pair: usize| {
        let inst = pair % PATCHED;
        let (tuple, attr, original) = cells[inst][rng.random_range(0..cells[inst].len())].clone();
        let pool = rng.random_range(0..PAYLOAD_POOL);
        let changed = PatchValue::Const(format!("c{}_p{attr}_{pool}", inst / VERSIONS));
        patch_and_search(client, &names[inst], (tuple, attr, changed));
        patch_and_search(client, &names[inst], (tuple, attr, original));
    };

    for pair in 0..100 {
        two_cycles(&mut client, pair);
    }
    let early = LIVE.load(Ordering::Relaxed);
    for pair in 100..1000 {
        two_cycles(&mut client, pair);
    }
    let late = LIVE.load(Ordering::Relaxed);
    client.shutdown().unwrap();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);

    let drift = late as f64 / early as f64 - 1.0;
    assert!(
        drift.abs() <= 0.01,
        "live heap moved {:+.2}% from cycle 200 ({early} B) to 2,000 ({late} B)",
        drift * 100.0
    );
}
