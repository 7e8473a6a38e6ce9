//! Levelwise (TANE-style) lattice search for approximate FDs and keys.
//!
//! Candidates are attribute sets of growing size, bounded by
//! [`DiscoveryConfig::max_lhs`]. Level ℓ+1 partitions are refined from
//! level-ℓ partitions ([`StrippedPartition::refine`]) rather than rebuilt,
//! and every candidate of a level is evaluated concurrently on the
//! [`ic_pool`] workers. Determinism is a contract: candidates are
//! generated in lexicographic attribute order, `par_map` preserves input
//! order, and all filtering happens in that order afterwards — the output
//! is bit-identical at any thread count.

use crate::measure::{fd_removals, key_removals, G3};
use crate::partition::{ColumnCodes, StrippedPartition};
use ic_core::Error;
use ic_model::{AttrId, Catalog, Instance, RelId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Which possible world gates a candidate against
/// [`DiscoveryConfig::epsilon`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WorldGate {
    /// Gate on `g3_min`: report constraints that hold approximately in
    /// *some* world (the optimistic reading — the default).
    #[default]
    Possible,
    /// Gate on `g3_max`: report constraints that hold approximately in
    /// *every* world (the certain reading).
    Certain,
}

/// Configuration of [`discover_fds`] / [`discover_keys`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryConfig {
    /// Maximum violation ratio a reported constraint may have (under
    /// [`Self::gate`]). Must be finite and in `[0, 1)`.
    pub epsilon: f64,
    /// Maximum LHS size for FDs / attribute-set size for keys. Must be
    /// ≥ 1; the lattice has `Σ_{ℓ≤max_lhs} C(arity, ℓ)` candidates per
    /// relation, so keep this small (2–3) on wide relations.
    pub max_lhs: usize,
    /// Support floor: an FD needs one all-constant LHS group of at least
    /// this many tuples (so keys do not trivially determine everything); a
    /// key needs at least this many tuples that are null-free on the key
    /// attributes.
    pub min_support: usize,
    /// Which world bound gates candidates against [`Self::epsilon`].
    pub gate: WorldGate,
    /// Wall-clock budget for one `discover_*` call; exhaustion returns
    /// [`Error::Budget`] rather than a partial result.
    pub budget: Option<Duration>,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            max_lhs: 2,
            min_support: 2,
            gate: WorldGate::Possible,
            budget: None,
        }
    }
}

impl DiscoveryConfig {
    /// Validates the configuration; `discover_*` call this up front.
    pub fn validate(&self) -> Result<(), Error> {
        if !self.epsilon.is_finite() || !(0.0..1.0).contains(&self.epsilon) {
            return Err(Error::Config(ic_core::ConfigError::EpsilonOutOfRange(
                self.epsilon,
            )));
        }
        if self.max_lhs == 0 {
            return Err(Error::Config(ic_core::ConfigError::ZeroMaxLhs));
        }
        Ok(())
    }

    fn gate_value(&self, g3: G3) -> f64 {
        match self.gate {
            WorldGate::Possible => g3.g3_min,
            WorldGate::Certain => g3.g3_max,
        }
    }
}

/// A discovered approximate functional dependency `lhs → rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredFd {
    /// The relation the FD lives in.
    pub rel: RelId,
    /// Determinant attributes, ascending, nonempty, ≤ `max_lhs` long.
    pub lhs: Vec<AttrId>,
    /// The determined attribute (never in `lhs`).
    pub rhs: AttrId,
    /// The possible-world violation interval.
    pub g3: G3,
    /// Size of the largest all-constant LHS group (the support statistic).
    pub support: usize,
}

/// A discovered approximate key.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredKey {
    /// The relation the key lives in.
    pub rel: RelId,
    /// Key attributes, ascending, nonempty, ≤ `max_lhs` long.
    pub attrs: Vec<AttrId>,
    /// The possible-world violation interval.
    pub g3: G3,
    /// Tuples that are null-free on every key attribute.
    pub covered: usize,
}

/// Deadline latch shared by the workers of one discovery call: the first
/// worker to observe the deadline flips it, later candidates short-circuit.
struct Deadline {
    start: Instant,
    budget: Option<Duration>,
    hit: AtomicBool,
}

impl Deadline {
    fn new(budget: Option<Duration>) -> Self {
        Self {
            start: Instant::now(),
            budget,
            hit: AtomicBool::new(false),
        }
    }

    fn expired(&self) -> bool {
        if self.hit.load(Ordering::Relaxed) {
            return true;
        }
        match self.budget {
            Some(b) if self.start.elapsed() > b => {
                self.hit.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    fn budget_error(&self) -> Error {
        Error::Budget {
            budget: self.budget,
            elapsed: self.start.elapsed(),
        }
    }

    fn check(&self) -> Result<(), Error> {
        if self.expired() {
            return Err(self.budget_error());
        }
        Ok(())
    }
}

/// One lattice node: an ascending attribute set and its partition.
struct Node {
    attrs: Vec<AttrId>,
    partition: StrippedPartition,
}

/// Whether the ascending list `sub` is a subset of the ascending list
/// `set`. Attribute sets are compared as sorted lists rather than bitmasks,
/// so relations of any arity are handled exactly.
fn is_subset(sub: &[AttrId], set: &[AttrId]) -> bool {
    let mut rest = set.iter();
    sub.iter().all(|a| rest.any(|b| b == a))
}

/// Generates the next lattice level: each node extended by every attribute
/// strictly beyond its last (lexicographic, duplicate-free), refining the
/// parent partition. Returns `None` when the deadline expired mid-level.
fn next_level(level: &[Node], cols: &ColumnCodes, deadline: &Deadline) -> Option<Vec<Node>> {
    let arity = cols.arity();
    let mut tasks: Vec<(usize, AttrId)> = Vec::new();
    for (i, node) in level.iter().enumerate() {
        let last = node.attrs.last().expect("nodes are nonempty").0;
        for a in last + 1..arity as u16 {
            tasks.push((i, AttrId(a)));
        }
    }
    let nodes = ic_pool::par_map(&tasks, |&(i, a)| {
        if deadline.expired() {
            return None;
        }
        let parent = &level[i];
        let mut attrs = parent.attrs.clone();
        attrs.push(a);
        Some(Node {
            partition: parent.partition.refine(cols, a.0 as usize),
            attrs,
        })
    });
    nodes.into_iter().collect()
}

fn first_level(cols: &ColumnCodes, deadline: &Deadline) -> Option<Vec<Node>> {
    let attrs: Vec<AttrId> = (0..cols.arity() as u16).map(AttrId).collect();
    let nodes = ic_pool::par_map(&attrs, |&a| {
        if deadline.expired() {
            return None;
        }
        Some(Node {
            attrs: vec![a],
            partition: StrippedPartition::single(cols, a.0 as usize),
        })
    });
    nodes.into_iter().collect()
}

/// Discovers approximate FDs with `|lhs| ≤ cfg.max_lhs` on every relation
/// of `instance`, gated by `cfg.epsilon` under `cfg.gate` and filtered to
/// *minimal* determinants: an FD is suppressed when a proper LHS subset
/// already qualified for the same RHS.
///
/// Output order (and content) is a total order — `(rel, |lhs|, lhs, rhs)`
/// ascending — and bit-identical at any `ic_pool` thread count.
pub fn discover_fds(
    instance: &Instance,
    catalog: &Catalog,
    cfg: &DiscoveryConfig,
) -> Result<Vec<DiscoveredFd>, Error> {
    cfg.validate()?;
    let _span = ic_obs::span("discovery.fds");
    let deadline = Deadline::new(cfg.budget);
    let mut out: Vec<DiscoveredFd> = Vec::new();
    for rel_idx in 0..catalog.schema().len() {
        let rel = RelId(rel_idx as u16);
        let arity = catalog.schema().relation(rel).arity();
        if arity < 2 {
            continue; // an FD needs two distinct attributes
        }
        let cols = ColumnCodes::build(instance, rel, arity);
        let n = cols.n();
        // FDs of this relation found so far, for minimality pruning of
        // higher levels.
        let found_from = out.len();
        let mut level = match first_level(&cols, &deadline) {
            Some(l) => l,
            None => return Err(deadline.budget_error()),
        };
        for _ in 0..cfg.max_lhs {
            ic_obs::counter("discovery.fds.candidates", level.len() as u64);
            // Evaluate every (lhs, rhs) pair of the level concurrently.
            let evals = ic_pool::par_map(&level, |node| {
                if deadline.expired() {
                    return None;
                }
                let support = node.partition.max_class_size();
                let mut per_rhs = Vec::new();
                for rhs in (0..arity as u16).map(AttrId) {
                    if node.attrs.contains(&rhs) {
                        continue;
                    }
                    let g3 = fd_removals(&node.partition, &cols, rhs.0 as usize).to_g3(n);
                    per_rhs.push((rhs, g3));
                }
                Some((support, per_rhs))
            });
            // Deterministic sequential filter pass in candidate order.
            for (node, eval) in level.iter().zip(evals) {
                let Some((support, per_rhs)) = eval else {
                    return Err(deadline.budget_error());
                };
                for (rhs, g3) in per_rhs {
                    let minimal = !out[found_from..]
                        .iter()
                        .any(|fd| fd.rhs == rhs && is_subset(&fd.lhs, &node.attrs));
                    if minimal && cfg.gate_value(g3) <= cfg.epsilon && support >= cfg.min_support {
                        out.push(DiscoveredFd {
                            rel,
                            lhs: node.attrs.clone(),
                            rhs,
                            g3,
                            support,
                        });
                    }
                }
            }
            if level[0].attrs.len() >= cfg.max_lhs || level[0].attrs.len() >= arity {
                break;
            }
            level = match next_level(&level, &cols, &deadline) {
                Some(l) if !l.is_empty() => l,
                Some(_) => break,
                None => return Err(deadline.budget_error()),
            };
        }
        deadline.check()?;
    }
    ic_obs::counter("discovery.fds.found", out.len() as u64);
    Ok(out)
}

/// Discovers approximate keys with `|attrs| ≤ cfg.max_lhs` on every
/// relation of `instance`, gated by `cfg.epsilon` under `cfg.gate` and
/// filtered to *minimal* keys (no qualifying proper subset).
///
/// Output order (and content) is a total order — `(rel, |attrs|, attrs)`
/// ascending — and bit-identical at any `ic_pool` thread count.
pub fn discover_keys(
    instance: &Instance,
    catalog: &Catalog,
    cfg: &DiscoveryConfig,
) -> Result<Vec<DiscoveredKey>, Error> {
    cfg.validate()?;
    let _span = ic_obs::span("discovery.keys");
    let deadline = Deadline::new(cfg.budget);
    let mut out: Vec<DiscoveredKey> = Vec::new();
    for rel_idx in 0..catalog.schema().len() {
        let rel = RelId(rel_idx as u16);
        let arity = catalog.schema().relation(rel).arity();
        if arity == 0 {
            continue;
        }
        let cols = ColumnCodes::build(instance, rel, arity);
        let n = cols.n();
        let found_from = out.len();
        let mut level = match first_level(&cols, &deadline) {
            Some(l) => l,
            None => return Err(deadline.budget_error()),
        };
        for _ in 0..cfg.max_lhs {
            ic_obs::counter("discovery.keys.candidates", level.len() as u64);
            let evals = ic_pool::par_map(&level, |node| {
                if deadline.expired() {
                    return None;
                }
                Some((
                    node.partition.covered() as usize,
                    key_removals(&node.partition).to_g3(n),
                ))
            });
            for (node, eval) in level.iter().zip(evals) {
                let Some((covered, g3)) = eval else {
                    return Err(deadline.budget_error());
                };
                let minimal = !out[found_from..]
                    .iter()
                    .any(|key| is_subset(&key.attrs, &node.attrs));
                if minimal && cfg.gate_value(g3) <= cfg.epsilon && covered >= cfg.min_support {
                    out.push(DiscoveredKey {
                        rel,
                        attrs: node.attrs.clone(),
                        g3,
                        covered,
                    });
                }
            }
            if level[0].attrs.len() >= cfg.max_lhs || level[0].attrs.len() >= arity {
                break;
            }
            level = match next_level(&level, &cols, &deadline) {
                Some(l) if !l.is_empty() => l,
                Some(_) => break,
                None => return Err(deadline.budget_error()),
            };
        }
        deadline.check()?;
    }
    ic_obs::counter("discovery.keys.found", out.len() as u64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Instance, Schema};

    fn a(i: u16) -> AttrId {
        AttrId(i)
    }

    fn clean_instance() -> (Catalog, Instance) {
        // id is a key; city → zip holds; everything else is noisy.
        let mut cat = Catalog::new(Schema::single("R", &["id", "city", "zip"]));
        let rel = RelId(0);
        let mut inst = Instance::new("I", &cat);
        for i in 0..30 {
            let id = cat.konst(&format!("id{i}"));
            let city = cat.konst(&format!("c{}", i % 3));
            let zip = cat.konst(&format!("z{}", i % 3));
            inst.insert(rel, vec![id, city, zip]);
        }
        (cat, inst)
    }

    #[test]
    fn finds_planted_key_and_fd_and_respects_minimality() {
        let (cat, inst) = clean_instance();
        let cfg = DiscoveryConfig {
            epsilon: 0.0,
            min_support: 2,
            ..Default::default()
        };
        let keys = discover_keys(&inst, &cat, &cfg).unwrap();
        // id alone is a key; no superset of it may be reported, and no
        // other single attribute or pair qualifies except via id.
        assert!(keys.iter().any(|k| k.attrs == vec![a(0)]));
        assert!(keys
            .iter()
            .all(|k| !k.attrs.contains(&a(0)) || k.attrs == vec![a(0)]));

        let fds = discover_fds(&inst, &cat, &cfg).unwrap();
        // city → zip and zip → city hold exactly; id → * holds trivially
        // (every group is a singleton) but fails min_support = 2.
        assert!(fds.iter().any(|fd| fd.lhs == vec![a(1)] && fd.rhs == a(2)));
        assert!(fds.iter().any(|fd| fd.lhs == vec![a(2)] && fd.rhs == a(1)));
        assert!(fds.iter().all(|fd| fd.lhs != vec![a(0)]));
        // Minimality: [city, X] → zip must not be reported.
        assert!(fds
            .iter()
            .all(|fd| !(fd.lhs.len() == 2 && fd.lhs.contains(&a(1)) && fd.rhs == a(2))));
        // Every report satisfies its own gate.
        for fd in &fds {
            assert!(fd.g3.g3_min <= cfg.epsilon);
            assert!(fd.g3.g3_min <= fd.g3.g3_max);
        }
    }

    #[test]
    fn epsilon_admits_near_constraints() {
        let (mut cat, mut inst) = clean_instance();
        let rel = RelId(0);
        // Break city → zip on one row: well under ε = 0.1 of 31 rows.
        let c0 = cat.konst("c0");
        let zx = cat.konst("z_outlier");
        let id = cat.konst("id_outlier");
        inst.insert(rel, vec![id, c0, zx]);
        let strict = DiscoveryConfig {
            epsilon: 0.0,
            ..Default::default()
        };
        let loose = DiscoveryConfig {
            epsilon: 0.1,
            ..Default::default()
        };
        let exact = discover_fds(&inst, &cat, &strict).unwrap();
        assert!(!exact
            .iter()
            .any(|fd| fd.lhs == vec![a(1)] && fd.rhs == a(2)));
        let near = discover_fds(&inst, &cat, &loose).unwrap();
        let hit = near
            .iter()
            .find(|fd| fd.lhs == vec![a(1)] && fd.rhs == a(2));
        let hit = hit.expect("near-FD city → zip under ε = 0.1");
        assert!((hit.g3.g3_min - 1.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn validation_and_budget_errors_are_typed() {
        let (cat, inst) = clean_instance();
        let bad = DiscoveryConfig {
            epsilon: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            discover_fds(&inst, &cat, &bad),
            Err(Error::Config(_))
        ));
        let zero = DiscoveryConfig {
            max_lhs: 0,
            ..Default::default()
        };
        assert!(matches!(
            discover_keys(&inst, &cat, &zero),
            Err(Error::Config(_))
        ));
        let starved = DiscoveryConfig {
            budget: Some(Duration::ZERO),
            ..Default::default()
        };
        assert!(matches!(
            discover_fds(&inst, &cat, &starved),
            Err(Error::Budget { .. })
        ));
        assert!(matches!(
            discover_keys(&inst, &cat, &starved),
            Err(Error::Budget { .. })
        ));
    }

    #[test]
    fn attributes_beyond_128_are_discovered_exactly() {
        // 130 attributes, 4 rows. A0 and A128 are keys; A1 ↔ A129 is an
        // FD pair; {A1, A2} and {A2, A129} are composite keys; every other
        // attribute is one constant. Ids ≥ 128 do not fit a u128 bitmask.
        let names: Vec<String> = (0..130).map(|i| format!("A{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut cat = Catalog::new(Schema::single("W", &names));
        let rel = RelId(0);
        let mut inst = Instance::new("I", &cat);
        for r in 0..4 {
            let row: Vec<_> = (0..130)
                .map(|i| match i {
                    0 => cat.konst(&format!("id{r}")),
                    1 => cat.konst(&format!("g{}", r % 2)),
                    2 => cat.konst(&format!("p{}", r / 2)),
                    128 => cat.konst(&format!("k{r}")),
                    129 => cat.konst(&format!("h{}", r % 2)),
                    _ => cat.konst("c"),
                })
                .collect();
            inst.insert(rel, row);
        }
        let cfg = |max_lhs| DiscoveryConfig {
            epsilon: 0.0,
            max_lhs,
            ..Default::default()
        };
        let attrs =
            |keys: Vec<DiscoveredKey>| keys.into_iter().map(|k| k.attrs).collect::<Vec<_>>();

        let singles = discover_keys(&inst, &cat, &cfg(1)).unwrap();
        assert_eq!(attrs(singles), vec![vec![a(0)], vec![a(128)]]);
        let pairs = discover_keys(&inst, &cat, &cfg(2)).unwrap();
        assert_eq!(
            attrs(pairs),
            vec![
                vec![a(0)],
                vec![a(128)],
                vec![a(1), a(2)],
                vec![a(2), a(129)],
            ]
        );

        let fds = discover_fds(&inst, &cat, &cfg(1)).unwrap();
        assert!(fds
            .iter()
            .any(|fd| fd.lhs == vec![a(1)] && fd.rhs == a(129)));
        assert!(fds
            .iter()
            .any(|fd| fd.lhs == vec![a(129)] && fd.rhs == a(1)));
        assert!(fds.iter().all(|fd| !fd.lhs.contains(&fd.rhs)));
    }

    #[test]
    fn discovery_is_thread_count_invariant() {
        let (cat, inst) = clean_instance();
        let cfg = DiscoveryConfig {
            epsilon: 0.1,
            ..Default::default()
        };
        let (f1, k1) = ic_pool::with_threads(1, || {
            (
                discover_fds(&inst, &cat, &cfg).unwrap(),
                discover_keys(&inst, &cat, &cfg).unwrap(),
            )
        });
        let (f4, k4) = ic_pool::with_threads(4, || {
            (
                discover_fds(&inst, &cat, &cfg).unwrap(),
                discover_keys(&inst, &cat, &cfg).unwrap(),
            )
        });
        assert_eq!(f1, f4);
        assert_eq!(k1, k4);
    }
}
