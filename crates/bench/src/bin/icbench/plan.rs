//! Workloads and their inputs: the seeded lake, the durable data
//! directory the server opens, the expected compare scores, and the
//! per-connection request streams.
//!
//! Everything here is a pure function of the workload and `--seed`; the
//! measured child reads the [`Plan`] file the parent wrote instead of
//! regenerating the lake, so its memory holds only what the server holds.

use ic_core::Comparator;
use ic_datagen::{generate_lake, LakeParams};
use ic_model::Schema;
use ic_serve::{Algo, AttrRef, PatchOp, PatchValue, Request};
use ic_store::{decode_snapshot, encode_snapshot, FileStorage, Storage};
use rand::rngs::SplitMix64;
use rand::RngExt;
use std::fmt::Write as _;
use std::path::Path;

/// Versions generated per lake cluster.
pub const VERSIONS: usize = 4;
/// Relation arity of every lake instance.
pub const ARITY: usize = 6;
/// `k` of every search request.
pub const SEARCH_K: u64 = 10;
/// `budget_ms` carried by every `compare_deadline` request.
pub const DEADLINE_BUDGET_MS: u64 = 1000;
/// Size of the lake's per-column payload vocabulary (`ic-datagen`'s
/// `POOL`); patch values are drawn from it so the interner never grows.
const PAYLOAD_POOL: usize = 7;
/// Requests per connection hashed to fingerprint a request stream.
const HASHED_REQUESTS: usize = 1000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined signature compares over a small lake whose sigmaps stay
    /// cached: the wire and the probe/complete/score kernels dominate.
    CompareHot,
    /// Budgeted compares over larger instances: the server never caches
    /// sigmaps for budgeted requests, so every request rebuilds both.
    CompareDeadline,
    /// Top-k search over a 4000-instance lake that never changes.
    SearchStatic,
    /// The same searches beside a stream of one-cell patches.
    SearchPatch,
}

/// What one client connection sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Signature compares of same-cluster version pairs.
    Compare {
        /// `budget_ms` of every request.
        budget_ms: Option<u64>,
    },
    /// `search` for a random instance.
    Search,
    /// A one-cell `patch`, then a `search` for the patched instance.
    PatchThenSearch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::CompareHot,
        Workload::CompareDeadline,
        Workload::SearchStatic,
        Workload::SearchPatch,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompareHot => "compare_hot",
            Workload::CompareDeadline => "compare_deadline",
            Workload::SearchStatic => "search_static",
            Workload::SearchPatch => "search_patch",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `(clusters, rows per original version)` of the workload's lake.
    pub fn lake_shape(self) -> (usize, usize) {
        match self {
            Workload::CompareHot => (64, 32),
            Workload::CompareDeadline => (256, 128),
            Workload::SearchStatic | Workload::SearchPatch => (1000, 16),
        }
    }

    /// Requests each connection keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::CompareHot => 8,
            _ => 1,
        }
    }

    /// The role of each of the two client connections.
    pub fn roles(self) -> [Role; 2] {
        match self {
            Workload::CompareHot => [Role::Compare { budget_ms: None }; 2],
            Workload::CompareDeadline => {
                [Role::Compare {
                    budget_ms: Some(DEADLINE_BUDGET_MS),
                }; 2]
            }
            Workload::SearchStatic => [Role::Search; 2],
            Workload::SearchPatch => [Role::Search, Role::PatchThenSearch],
        }
    }

    /// Whether requests are compares (else searches and patches).
    pub fn compares(self) -> bool {
        matches!(self, Workload::CompareHot | Workload::CompareDeadline)
    }

    fn index(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|w| *w == self)
            .expect("listed") as u64
    }
}

/// The lake schema: one relation `T(a0..a5)`, as `generate_lake` builds it.
pub fn lake_schema() -> Schema {
    let attrs: Vec<String> = (0..ARITY).map(|j| format!("a{j}")).collect();
    let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    Schema::single("T", &refs)
}

/// One lake instance as the request generators see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInstance {
    /// Catalog name, `c{cluster}v{version}`.
    pub name: String,
    /// Live tuple ids (patch targets).
    pub tuples: Vec<u32>,
}

/// One compare pair with its expected score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanPair {
    /// Index of the left instance.
    pub left: u32,
    /// Index of the right instance.
    pub right: u32,
    /// Bits of the signature score a direct `Comparator` computes.
    pub expected: u64,
}

/// Everything the measured child needs besides the data directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Instances in lake order: index `cluster * VERSIONS + version`.
    pub instances: Vec<PlanInstance>,
    /// Every same-cluster version pair `(vi, vj)`, `i < j` (compare
    /// workloads only).
    pub pairs: Vec<PlanPair>,
}

/// The prepared inputs of one workload and seed.
#[derive(Debug)]
pub struct Prepared {
    /// The request-generator inputs.
    pub plan: Plan,
    /// The durable snapshot the server opens.
    pub snapshot: Vec<u8>,
}

/// Generates the lake of `workload` from `seed`, encodes it as a durable
/// snapshot, and precomputes the expected score of every compare pair
/// from the decoded snapshot's catalog.
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let (clusters, rows) = workload.lake_shape();
    let lake = generate_lake(&LakeParams {
        clusters,
        versions_per_cluster: VERSIONS,
        rows,
        arity: ARITY,
        seed,
        ..LakeParams::default()
    });
    let mut named: Vec<_> = lake.instances.iter().map(|i| (i.name(), i)).collect();
    named.sort_by_key(|(name, _)| *name);
    let snapshot = encode_snapshot(1, &lake.catalog, named);

    let state = decode_snapshot(&snapshot).map_err(|e| format!("snapshot round trip: {e}"))?;
    let by_name: std::collections::HashMap<&str, &ic_model::Instance> = state
        .instances
        .iter()
        .map(|(n, i)| (n.as_str(), i))
        .collect();
    let instances: Vec<PlanInstance> = lake
        .instances
        .iter()
        .map(|inst| PlanInstance {
            name: inst.name().to_string(),
            tuples: inst.iter_all().map(|(_, t)| t.id().0).collect(),
        })
        .collect();

    let mut pairs = Vec::new();
    if workload.compares() {
        let cmp = Comparator::new(&state.catalog)
            .build()
            .map_err(|e| format!("comparator: {e}"))?;
        for c in 0..clusters {
            for i in 0..VERSIONS {
                for j in i + 1..VERSIONS {
                    let (l, r) = (c * VERSIONS + i, c * VERSIONS + j);
                    let left = by_name[instances[l].name.as_str()];
                    let right = by_name[instances[r].name.as_str()];
                    let out = cmp
                        .signature(left, right)
                        .map_err(|e| format!("expected score: {e}"))?;
                    pairs.push(PlanPair {
                        left: l as u32,
                        right: r as u32,
                        expected: out.best.score().to_bits(),
                    });
                }
            }
        }
    }
    Ok(Prepared {
        plan: Plan { instances, pairs },
        snapshot,
    })
}

/// (Re)creates `dir` as a data directory holding exactly `snapshot`.
pub fn install_data_dir(dir: &Path, snapshot: &[u8]) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    FileStorage::open(dir)
        .and_then(|mut s| s.install_snapshot(snapshot))
        .map_err(|e| format!("writing {}: {e}", dir.display()))
}

impl Plan {
    /// Line-based text form: `i <name> <id,id,…>` per instance, then
    /// `p <left> <right> <score bits hex>` per pair.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for inst in &self.instances {
            let ids: Vec<String> = inst.tuples.iter().map(u32::to_string).collect();
            let _ = writeln!(out, "i {} {}", inst.name, ids.join(","));
        }
        for p in &self.pairs {
            let _ = writeln!(out, "p {} {} {:x}", p.left, p.right, p.expected);
        }
        out
    }

    /// Parses [`Plan::encode`] output.
    pub fn decode(text: &str) -> Result<Plan, String> {
        let mut plan = Plan {
            instances: Vec::new(),
            pairs: Vec::new(),
        };
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("plan line {}: {line:?}", n + 1);
            let fields: Vec<&str> = line.split(' ').collect();
            match fields.as_slice() {
                ["i", name, ids] => plan.instances.push(PlanInstance {
                    name: name.to_string(),
                    tuples: ids
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| s.parse().map_err(|_| bad()))
                        .collect::<Result<_, _>>()?,
                }),
                ["p", l, r, bits] => plan.pairs.push(PlanPair {
                    left: l.parse().map_err(|_| bad())?,
                    right: r.parse().map_err(|_| bad())?,
                    expected: u64::from_str_radix(bits, 16).map_err(|_| bad())?,
                }),
                _ => return Err(bad()),
            }
        }
        Ok(plan)
    }
}

/// What a request is, for checking its answer and filing its latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compare of plan pair `pair`.
    Compare {
        /// Index into [`Plan::pairs`].
        pair: u32,
    },
    /// Search for instance `query`; `after_patch` when it follows a patch
    /// of that instance on the same connection.
    Search {
        /// Index into [`Plan::instances`].
        query: u32,
        /// Whether this search completes a patch → visible cycle.
        after_patch: bool,
    },
    /// One-cell patch of instance `inst`.
    Patch {
        /// Index into [`Plan::instances`].
        inst: u32,
    },
}

/// The endless request stream of one connection.
#[derive(Debug, Clone)]
pub struct Stream {
    role: Role,
    rng: SplitMix64,
    pending_search: Option<u32>,
}

impl Stream {
    /// The stream of connection `conn` of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Self {
        let mix = seed ^ (workload.index() << 56) ^ ((conn as u64 + 1) << 48);
        Stream {
            role: workload.roles()[conn],
            rng: SplitMix64::new(mix),
            pending_search: None,
        }
    }

    /// The next request (id 0; the client assigns ids) and what it is.
    pub fn next(&mut self, plan: &Plan) -> (Op, Request) {
        let search = |query: u32, after_patch: bool| {
            (
                Op::Search { query, after_patch },
                Request::Search {
                    id: 0,
                    query: plan.instances[query as usize].name.clone(),
                    k: SEARCH_K,
                    lambda: None,
                    budget_ms: None,
                },
            )
        };
        if let Some(query) = self.pending_search.take() {
            return search(query, true);
        }
        match self.role {
            Role::Compare { budget_ms } => {
                let pair = self.rng.random_range(0..plan.pairs.len());
                let p = plan.pairs[pair];
                (
                    Op::Compare { pair: pair as u32 },
                    Request::Compare {
                        id: 0,
                        left: plan.instances[p.left as usize].name.clone(),
                        right: plan.instances[p.right as usize].name.clone(),
                        algo: Algo::Signature,
                        lambda: None,
                        budget_ms,
                    },
                )
            }
            Role::Search => search(self.rng.random_range(0..plan.instances.len()) as u32, false),
            Role::PatchThenSearch => {
                let inst = self.rng.random_range(0..plan.instances.len());
                let target = &plan.instances[inst];
                let tuple = target.tuples[self.rng.random_range(0..target.tuples.len())];
                let attr = self.rng.random_range(1..ARITY);
                let cluster = inst / VERSIONS;
                let value = format!(
                    "c{cluster}_p{attr}_{}",
                    self.rng.random_range(0..PAYLOAD_POOL)
                );
                self.pending_search = Some(inst as u32);
                (
                    Op::Patch { inst: inst as u32 },
                    Request::Patch {
                        id: 0,
                        name: target.name.clone(),
                        ops: vec![PatchOp::Modify {
                            tuple,
                            attr: AttrRef::Index(attr as u16),
                            value: PatchValue::Const(value),
                        }],
                    },
                )
            }
        }
    }
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn fingerprint(bytes: &[u8]) -> String {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Fingerprint of the first requests of connection `conn`'s stream: two
/// runs with the same seed must send the same requests.
pub fn stream_fingerprint(workload: Workload, seed: u64, conn: usize, plan: &Plan) -> String {
    let mut stream = Stream::new(workload, seed, conn);
    let mut bytes = Vec::new();
    for _ in 0..HASHED_REQUESTS {
        bytes.extend_from_slice(&stream.next(plan).1.encode());
        bytes.push(b'\n');
    }
    fingerprint(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_plan() -> Plan {
        Plan {
            instances: (0..8)
                .map(|i| PlanInstance {
                    name: format!("c{}v{}", i / VERSIONS, i % VERSIONS),
                    tuples: vec![0, 2, 5],
                })
                .collect(),
            pairs: vec![
                PlanPair {
                    left: 0,
                    right: 1,
                    expected: 0.75f64.to_bits(),
                },
                PlanPair {
                    left: 4,
                    right: 7,
                    expected: 1.0f64.to_bits(),
                },
            ],
        }
    }

    #[test]
    fn plan_text_round_trips() {
        let plan = small_plan();
        assert_eq!(Plan::decode(&plan.encode()).unwrap(), plan);
        assert!(Plan::decode("x 1 2").is_err());
    }

    #[test]
    fn streams_depend_only_on_seed_and_connection() {
        let plan = small_plan();
        let w = Workload::SearchPatch;
        let a = stream_fingerprint(w, 7, 1, &plan);
        assert_eq!(a, stream_fingerprint(w, 7, 1, &plan));
        assert_ne!(a, stream_fingerprint(w, 8, 1, &plan));
        assert_ne!(a, stream_fingerprint(w, 7, 0, &plan));
    }

    #[test]
    fn patch_is_followed_by_a_search_of_the_patched_instance() {
        let plan = small_plan();
        let mut s = Stream::new(Workload::SearchPatch, 3, 1);
        for _ in 0..20 {
            let (op, req) = s.next(&plan);
            let Op::Patch { inst } = op else {
                panic!("expected a patch, got {op:?}")
            };
            assert!(matches!(req, Request::Patch { .. }));
            let (follow, _) = s.next(&plan);
            assert_eq!(
                follow,
                Op::Search {
                    query: inst,
                    after_patch: true
                }
            );
        }
    }

    #[test]
    fn workload_names_parse() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
