//! The approximate *signature* algorithm (paper Alg. 3 + 4).
//!
//! A signature of a tuple is a positional encoding of some of its constants
//! (Def. 6.2). The algorithm greedily builds an instance match in three
//! steps:
//!
//! 1. hash the *maximal* signatures of one side into a signature map and
//!    probe it with the signatures of the other side (Property 1 guarantees
//!    every hit is c-compatible);
//! 2. repeat in the opposite direction, catching tuples whose constant
//!    positions are a superset instead of a subset;
//! 3. complete the match with a greedy pass over the remaining compatible
//!    tuples (`CompatibleTuples`, the same index as the exact algorithm).
//!
//! Instead of enumerating the powerset of a probing tuple's ground
//! attributes, the implementation enumerates only the *distinct ground-
//! attribute sets present in the signature map*, in decreasing size — every
//! other subset misses the map by construction, so the result is identical
//! to the paper's enumeration while avoiding the `2^arity` factor.
//!
//! Partial matches (Sec. 6.3) are supported by populating the map with all
//! signatures (Property 2) under a configurable cap and by letting
//! conflicting cells stay misaligned rather than failing a pair.

use crate::compat::CandidateIndex;
use crate::delta::{Delta, DeltaOp};
use crate::mapping::{InstanceMatch, MatchMode};
use crate::score::{optimistic_pair_score, score_state, ScoreConfig};
use crate::state::MatchState;
use crate::universe::Side;
use ic_model::{Catalog, FxHashMap, FxHashSet, Instance, RelId, Sym, Tuple, TupleId, Value};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Stride of the deadline re-checks inside the candidate-consumption loops:
/// a tuple with a huge candidate list must notice budget exhaustion without
/// paying a clock read per candidate.
const BUDGET_CHECK_STRIDE: usize = 64;

/// Minimum tuple count before the signature-map build fans out over the
/// [`ic_pool`] workers.
const PAR_SIGMAP_MIN_TUPLES: usize = 1024;
/// Minimum probe/left-tuple count per chunk for the parallel candidate
/// discovery of the probe and completion passes.
const PAR_CANDIDATES_MIN_TUPLES: usize = 256;

/// Configuration of the signature algorithm.
#[derive(Debug, Clone, Copy)]
pub struct SignatureConfig {
    /// Injectivity restrictions (paper cases 1–4 in Sec. 6.2).
    pub mode: MatchMode,
    /// Scoring parameters.
    pub score: ScoreConfig,
    /// Enables the partial-match variant (Sec. 6.3): signature maps hold
    /// *all* signatures and pairs may leave conflicting cells misaligned.
    pub partial: bool,
    /// In partial mode, at most this many signatures are indexed per tuple
    /// (largest first); bounds the combinatorial factor in the arity. It
    /// shapes partial-mode maps only: complete mode indexes one signature
    /// per tuple, and the probe visits only the masks present in the map.
    pub max_signatures_per_tuple: usize,
    /// Wall-clock budget, mirroring [`crate::ExactConfig::budget`]: checked
    /// between phases, per probe/left tuple in the matching loops, and per
    /// tuple during the (combinatorial) partial-mode signature indexing.
    /// On exhaustion the match built so far is scored and returned with
    /// [`SignatureOutcome::timed_out`]` = true`. `None` means unbounded.
    pub budget: Option<Duration>,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        Self {
            mode: MatchMode::one_to_one(),
            score: ScoreConfig::default(),
            partial: false,
            max_signatures_per_tuple: 4096,
            budget: None,
        }
    }
}

/// Step attribution statistics (paper Table 4 ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct SignatureStats {
    /// Matches discovered by the signature-based passes (step 1+2).
    pub sig_matches: usize,
    /// Matches discovered by the exhaustive completion (step 3).
    pub exhaustive_matches: usize,
    /// Score of the match after the signature-based passes only.
    pub sig_score: f64,
    /// Final score after completion.
    pub final_score: f64,
}

/// Result of a signature run.
#[derive(Debug, Clone)]
pub struct SignatureOutcome {
    /// The greedy instance match.
    pub best: InstanceMatch,
    /// Step attribution statistics.
    pub stats: SignatureStats,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether [`SignatureConfig::budget`] expired before the run finished;
    /// the returned match covers only the work done up to that point.
    pub timed_out: bool,
}

/// Bitmask of the attributes where the tuple holds constants. Signature
/// indexing requires arity ≤ 128; wider relations skip the signature passes
/// and rely on the completion step only.
fn ground_mask(t: &Tuple) -> u128 {
    let mut mask = 0u128;
    for (i, v) in t.values().iter().enumerate() {
        if v.is_const() {
            mask |= 1u128 << i;
        }
    }
    mask
}

/// The signature key of `t` on the attribute set `mask`: its constants at
/// the mask positions in ascending attribute order (Def. 6.2's
/// lexicographic-order requirement is met by the fixed positional order).
fn signature_key(t: &Tuple, mask: u128) -> Box<[Sym]> {
    let mut key = Vec::with_capacity(mask.count_ones() as usize);
    let mut m = mask;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        match t.values()[i] {
            Value::Const(s) => key.push(s),
            Value::Null(_) => unreachable!("mask must select constant positions"),
        }
        m &= m - 1;
    }
    key.into_boxed_slice()
}

/// Tuples of one bucket keyed by their signature on the bucket's mask.
type KeyedTuples = FxHashMap<Box<[Sym]>, Vec<TupleId>>;

/// The order of a signature map's buckets: decreasing mask size, then mask.
fn bucket_key(mask: u128) -> (Reverse<u32>, u128) {
    (Reverse(mask.count_ones()), mask)
}

/// Signature map of one side of one relation: for each distinct attribute
/// set (mask), the tuples keyed by their signature on that set.
#[derive(Debug, Clone, PartialEq)]
struct SigMap {
    /// `(mask, key → tuples)` sorted by [`bucket_key`].
    buckets: Vec<(u128, KeyedTuples)>,
}

impl SigMap {
    /// Builds the map over `tuples`. In complete mode only maximal
    /// signatures are indexed (Alg. 4 line 3); in partial mode all
    /// signatures up to the per-tuple cap (Sec. 6.3).
    ///
    /// The build fans out over [`ic_pool`] in tuple chunks and merges the
    /// chunk-local maps in chunk order, so every `(mask, key)` bucket lists
    /// its tuples in global tuple order — byte-identical to a sequential
    /// build at any thread count. The returned flag reports whether
    /// `deadline` expired mid-build (the map then covers a prefix of the
    /// tuples; only the combinatorial partial mode checks per tuple).
    fn build(
        tuples: &[Tuple],
        partial: bool,
        max_per_tuple: usize,
        deadline: Option<Instant>,
    ) -> (Self, bool) {
        let chunk_size = tuples
            .len()
            .div_ceil(ic_pool::current_threads().max(1))
            .max(PAR_SIGMAP_MIN_TUPLES);
        let chunk_maps: Vec<(FxHashMap<u128, KeyedTuples>, bool)> =
            ic_pool::par_chunks(tuples, chunk_size, |_, chunk| {
                let mut by_mask: FxHashMap<u128, KeyedTuples> = FxHashMap::default();
                let mut expired = false;
                for t in chunk {
                    if t.arity() > 128 {
                        continue;
                    }
                    let gmask = ground_mask(t);
                    if partial {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            expired = true;
                            break;
                        }
                        for mask in subsets_desc(gmask, max_per_tuple) {
                            by_mask
                                .entry(mask)
                                .or_default()
                                .entry(signature_key(t, mask))
                                .or_default()
                                .push(t.id());
                        }
                    } else {
                        by_mask
                            .entry(gmask)
                            .or_default()
                            .entry(signature_key(t, gmask))
                            .or_default()
                            .push(t.id());
                    }
                }
                (by_mask, expired)
            });
        let mut by_mask: FxHashMap<u128, KeyedTuples> = FxHashMap::default();
        let mut expired = false;
        for (chunk_map, chunk_expired) in chunk_maps {
            expired |= chunk_expired;
            for (mask, keyed) in chunk_map {
                let bucket = by_mask.entry(mask).or_default();
                for (key, ids) in keyed {
                    bucket.entry(key).or_default().extend(ids);
                }
            }
        }
        let mut buckets: Vec<_> = by_mask.into_iter().collect();
        // Secondary mask key: equal-popcount buckets would otherwise probe
        // in hash-map iteration order, making the greedy result depend on
        // insertion history.
        buckets.sort_by_key(|(mask, _)| bucket_key(*mask));
        (Self { buckets }, expired)
    }

    /// Binary search for the bucket of `mask`: `Ok(index)` if present,
    /// otherwise `Err(position)` where it belongs in [`bucket_key`] order.
    fn find_bucket(&self, mask: u128) -> Result<usize, usize> {
        self.buckets
            .binary_search_by_key(&bucket_key(mask), |(m, _)| bucket_key(*m))
    }

    /// Index of the bucket for `mask`, inserting an empty bucket at its
    /// sorted position if absent — the same total order [`SigMap::build`]
    /// establishes, so a repaired map probes buckets in exactly the order a
    /// fresh build would.
    fn bucket_index_or_insert(&mut self, mask: u128) -> usize {
        self.find_bucket(mask).unwrap_or_else(|pos| {
            self.buckets.insert(pos, (mask, KeyedTuples::default()));
            pos
        })
    }

    /// Removes every index entry of `t`. Empty keys and buckets are dropped
    /// so the repaired map is structurally identical to a fresh build over
    /// the remaining tuples. Returns `1` if the tuple was indexable.
    fn remove_tuple(&mut self, t: &Tuple, partial: bool, max_per_tuple: usize) -> u64 {
        if t.arity() > 128 {
            return 0;
        }
        for mask in tuple_masks(t, partial, max_per_tuple) {
            let Ok(bi) = self.find_bucket(mask) else {
                continue;
            };
            let keyed = &mut self.buckets[bi].1;
            let key = signature_key(t, mask);
            if let Some(ids) = keyed.get_mut(&key) {
                ids.retain(|&id| id != t.id());
                if ids.is_empty() {
                    keyed.remove(&key);
                }
            }
            if keyed.is_empty() {
                self.buckets.remove(bi);
            }
        }
        1
    }

    /// Indexes `t`, placing its id at the position a fresh build would:
    /// bucket tuple lists are in relation-storage order, so the id is
    /// binary-searched in by `pos_of` (current storage position of a live
    /// tuple). Returns `1` if the tuple was indexable.
    fn add_tuple(
        &mut self,
        t: &Tuple,
        partial: bool,
        max_per_tuple: usize,
        pos_of: &dyn Fn(TupleId) -> u32,
    ) -> u64 {
        if t.arity() > 128 {
            return 0;
        }
        let pos = pos_of(t.id());
        for mask in tuple_masks(t, partial, max_per_tuple) {
            let bi = self.bucket_index_or_insert(mask);
            let ids = self.buckets[bi]
                .1
                .entry(signature_key(t, mask))
                .or_default();
            let at = ids.partition_point(|&id| pos_of(id) < pos);
            ids.insert(at, t.id());
        }
        1
    }
}

/// The masks a tuple is indexed under — mirrors [`SigMap::build`] exactly:
/// complete mode indexes only the maximal (ground-attribute) mask, partial
/// mode all non-empty subsets up to the per-tuple cap, largest first.
fn tuple_masks(t: &Tuple, partial: bool, max_per_tuple: usize) -> Vec<u128> {
    let gmask = ground_mask(t);
    if partial {
        subsets_desc(gmask, max_per_tuple)
    } else {
        vec![gmask]
    }
}

/// Persistent signature maps of one instance, reusable across comparisons
/// and repairable under tuple-level deltas ([`crate::Delta`]).
///
/// A fresh [`signature_match`] rebuilds one `SigMap` per relation per
/// side; seeding [`signature_match_seeded`] with prebuilt maps skips those
/// builds entirely. The **bit-identity contract**: a map produced by
/// [`InstanceSigMaps::build`] and then brought forward with
/// [`InstanceSigMaps::repair`] after each delta equals (`==`) a map freshly
/// built over the new instance — same buckets in the same order, same
/// tuple lists in relation-storage order — so a seeded run returns exactly
/// the bytes a from-scratch run would, at any pool thread count.
///
/// Maps are built and repaired without a deadline: a budget only bounds the
/// *matching* phases of a seeded run, never the index, so a timed-out
/// comparison leaves the maps fully consistent for the next call.
///
/// The maps depend on the instance contents plus the `partial` and
/// `max_signatures_per_tuple` fields of the build config; seeding a run
/// whose config disagrees on those fields is a contract violation
/// ([`signature_match_seeded`] panics).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceSigMaps {
    partial: bool,
    max_per_tuple: usize,
    rels: Vec<SigMap>,
}

impl InstanceSigMaps {
    /// Builds the per-relation signature maps of `instance` under `cfg`
    /// (only [`SignatureConfig::partial`] and
    /// [`SignatureConfig::max_signatures_per_tuple`] matter). Runs without
    /// a deadline; fans out over [`ic_pool`] like the in-run build.
    pub fn build(instance: &Instance, cfg: &SignatureConfig) -> Self {
        let _span = crate::obs::span("signature.sigmap_build");
        let rels = (0..instance.num_relations())
            .map(|r| {
                let tuples = instance.tuples(RelId(r as u16));
                SigMap::build(tuples, cfg.partial, cfg.max_signatures_per_tuple, None).0
            })
            .collect();
        Self {
            partial: cfg.partial,
            max_per_tuple: cfg.max_signatures_per_tuple,
            rels,
        }
    }

    /// Whether these maps can seed a run under `cfg` (the map-shaping
    /// fields agree).
    pub fn compatible_with(&self, cfg: &SignatureConfig) -> bool {
        self.partial == cfg.partial && self.max_per_tuple == cfg.max_signatures_per_tuple
    }

    /// Brings maps that index `old` forward to `new`, the result of
    /// applying `delta` to `old` with [`crate::Delta::apply`]. The touched
    /// tuples are the delta's `Delete` and `Modify` ids plus the inserted
    /// ids `old.id_bound()..new.id_bound()`, each taken once. All of them
    /// are unindexed with their contents in `old`, then indexed with their
    /// contents and storage positions in `new`; no other tuple is visited.
    /// The repaired maps equal [`InstanceSigMaps::build`] over `new`.
    ///
    /// Returns the index operations performed: one per indexable tuple
    /// removed or added, so a modified tuple counts two. A full build of
    /// `new` costs one per indexable tuple; the ratio is the index work
    /// the repair saves.
    ///
    /// # Panics
    /// The maps must index `old`, and `new` must be exactly `old` with
    /// `delta` applied. Otherwise this may panic on a tuple the maps list
    /// but `new` no longer holds, or leave maps that describe neither
    /// instance.
    pub fn repair(&mut self, old: &Instance, new: &Instance, delta: &Delta) -> u64 {
        let mut touched: Vec<TupleId> = delta
            .ops
            .iter()
            .filter_map(|op| match op {
                DeltaOp::Delete { id } | DeltaOp::Modify { id, .. } => Some(*id),
                DeltaOp::Insert { .. } => None,
            })
            .chain((old.id_bound()..new.id_bound()).map(|i| TupleId(i as u32)))
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let (partial, max_per_tuple) = (self.partial, self.max_per_tuple);
        let mut ops = 0;
        // Unindex all old contents first: `add_tuple` binary-searches the
        // bucket lists by position in `new`, so they may only hold tuples
        // live there.
        for &id in &touched {
            if let (Some(rel), Some(t)) = (old.rel_of(id), old.tuple(id)) {
                ops += self.rels[rel.0 as usize].remove_tuple(t, partial, max_per_tuple);
            }
        }
        let pos_of = |tid: TupleId| new.loc(tid).expect("indexed tuples are live").1;
        for &id in &touched {
            if let (Some(rel), Some(t)) = (new.rel_of(id), new.tuple(id)) {
                ops += self.rels[rel.0 as usize].add_tuple(t, partial, max_per_tuple, &pos_of);
            }
        }
        crate::obs::counter("sig.sigmap.repair_ops", ops);
        ops
    }

    /// The signature map of one relation, if the instance has it.
    fn sigmap(&self, rel: RelId) -> Option<&SigMap> {
        self.rels.get(rel.0 as usize)
    }

    /// Visits every signature bucket of these maps: one call per distinct
    /// `(relation, mask, key)` entry with the number of tuples indexed
    /// under it. This is the hook catalog-level indexes (ic-index) use to
    /// derive posting lists from the same per-tuple signatures the matcher
    /// probes, without exposing the map internals.
    ///
    /// Visit order is unspecified (bucket-internal hash order); callers
    /// that need determinism must sort what they collect.
    pub fn for_each_signature(&self, mut f: impl FnMut(RelId, u128, &[Sym], usize)) {
        for (r, map) in self.rels.iter().enumerate() {
            let rel = RelId(r as u16);
            for (mask, keyed) in &map.buckets {
                for (key, ids) in keyed {
                    f(rel, *mask, key, ids.len());
                }
            }
        }
    }
}

/// Enumerates subsets of `mask` in decreasing popcount order, up to `cap`
/// subsets (the full mask first, the empty set last). Used by the partial
/// variant; the empty signature is skipped because it matches everything.
fn subsets_desc(mask: u128, cap: usize) -> Vec<u128> {
    let bits: Vec<u128> = (0..128)
        .filter(|i| mask & (1u128 << i) != 0)
        .map(|i| 1u128 << i)
        .collect();
    let n = bits.len();
    let mut out = Vec::new();
    // Enumerate by decreasing size; sizes beyond what the cap allows are cut.
    'outer: for size in (1..=n).rev() {
        // Gosper-style enumeration of size-`size` index combinations.
        let mut idx: Vec<usize> = (0..size).collect();
        loop {
            let m = idx.iter().fold(0u128, |acc, &i| acc | bits[i]);
            out.push(m);
            if out.len() >= cap {
                break 'outer;
            }
            // next combination
            let mut i = size;
            loop {
                if i == 0 {
                    break;
                }
                i -= 1;
                if idx[i] != i + n - size {
                    idx[i] += 1;
                    for j in i + 1..size {
                        idx[j] = idx[j - 1] + 1;
                    }
                    break;
                }
                if i == 0 {
                    continue 'outer;
                }
            }
        }
    }
    out
}

/// Shared mutable context of one signature run.
struct Run<'b> {
    state: MatchState<'b>,
    cfg: SignatureConfig,
    /// Already-recorded pairs, kept only in n-to-m mode, which may revisit
    /// a candidate. With an injective side, that side's matched degree
    /// already rejects a repeated pair.
    seen: Option<FxHashSet<(TupleId, TupleId)>>,
    /// Wall-clock cutoff derived from [`SignatureConfig::budget`].
    deadline: Option<Instant>,
    timed_out: bool,
}

impl Run<'_> {
    /// True once the budget is exhausted; latches [`Run::timed_out`] so
    /// later phases short-circuit without re-reading the clock.
    fn out_of_budget(&mut self) -> bool {
        if self.timed_out {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.timed_out = true;
                true
            }
            _ => false,
        }
    }

    /// Whether a pair already holds `t` of `side`. A signature run never
    /// pops a pair, so this only grows.
    fn matched(&self, side: Side, t: TupleId) -> bool {
        match side {
            Side::Left => self.state.left_degree(t) > 0,
            Side::Right => self.state.right_degree(t) > 0,
        }
    }

    /// Attempts to record pair `(lt, rt)`; returns whether it was added.
    fn try_match(&mut self, rel: RelId, lt: TupleId, rt: TupleId) -> bool {
        let mode = self.cfg.mode;
        if mode.left_injective && self.matched(Side::Left, lt) {
            return false;
        }
        if mode.right_injective && self.matched(Side::Right, rt) {
            return false;
        }
        if self
            .seen
            .as_ref()
            .is_some_and(|seen| seen.contains(&(lt, rt)))
        {
            return false;
        }
        if self
            .state
            .try_push_pair(rel, lt, rt, self.cfg.partial)
            .is_err()
        {
            return false;
        }
        if let Some(seen) = &mut self.seen {
            seen.insert((lt, rt));
        }
        true
    }

    /// One signature pass (Alg. 4): `sig_side`'s maximal signatures are
    /// indexed; the opposite side probes. Returns the number of matches.
    ///
    /// Candidate discovery (map lookups per probe) never reads the match
    /// state, so the probes partition freely across the [`ic_pool`] workers;
    /// each yields its candidate list in bucket order (largest masks first).
    /// The greedy consumption stays sequential in probe order, making the
    /// final match bit-identical to a one-thread run.
    ///
    /// With `seeded` maps the build is skipped entirely: the caller
    /// guarantees the map indexes exactly `sig_side`'s tuples of `rel`
    /// under the run's config (see [`InstanceSigMaps`]), so every phase
    /// after the build sees byte-identical inputs to a from-scratch run.
    fn find_sig_matches(&mut self, rel: RelId, sig_side: Side, seeded: Option<&SigMap>) -> usize {
        if self.out_of_budget() {
            return 0;
        }
        let (sig_inst, probe_inst) = match sig_side {
            Side::Left => (self.state.left(), self.state.right()),
            Side::Right => (self.state.right(), self.state.left()),
        };
        let sig_tuples = sig_inst.tuples(rel);
        let probe_tuples = probe_inst.tuples(rel);
        if sig_tuples.first().map_or(0, Tuple::arity) > 128 {
            return 0; // fall back to the exhaustive completion
        }
        let owned: SigMap;
        let sigmap: &SigMap = match seeded {
            Some(map) => {
                crate::obs::counter("sig.sigmap.reused", 1);
                map
            }
            None => {
                let (map, build_expired) = {
                    let _span = crate::obs::span("signature.sigmap_build");
                    SigMap::build(
                        sig_tuples,
                        self.cfg.partial,
                        self.cfg.max_signatures_per_tuple,
                        self.deadline,
                    )
                };
                self.timed_out |= build_expired;
                owned = map;
                &owned
            }
        };
        crate::obs::counter("sig.sigmap.buckets", sigmap.buckets.len() as u64);
        let _span = crate::obs::span("signature.probe");
        // Budget check inside the parallel discovery: the closures never
        // touch `self`, so expiry is latched through a shared flag and
        // folded into `timed_out` after the fan-out. Remaining probes
        // short-circuit to empty candidate lists.
        let deadline = self.deadline;
        let expired = AtomicBool::new(false);
        let plans: Vec<(TupleId, Vec<TupleId>)> =
            ic_pool::par_map_min_chunk(probe_tuples, PAR_CANDIDATES_MIN_TUPLES, |t| {
                if deadline.is_some() {
                    if expired.load(Ordering::Relaxed) {
                        return (t.id(), Vec::new());
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        expired.store(true, Ordering::Relaxed);
                        return (t.id(), Vec::new());
                    }
                }
                let probe_mask = ground_mask(t);
                // Only the map's masks that are subsets of the probe's ground
                // attributes, largest first: every other subset of Alg. 4's
                // enumeration misses the map by construction.
                let mut cands = Vec::new();
                for (mask, keyed) in &sigmap.buckets {
                    if mask & probe_mask != *mask {
                        continue;
                    }
                    if let Some(hits) = keyed.get(&signature_key(t, *mask)) {
                        cands.extend_from_slice(hits);
                    }
                }
                (t.id(), cands)
            });
        self.timed_out |= expired.load(Ordering::Relaxed);
        if crate::obs::active() {
            crate::obs::counter(
                "sig.probe.candidates_found",
                plans.iter().map(|(_, c)| c.len() as u64).sum(),
            );
        }

        let mode = self.cfg.mode;
        // Injectivity of the probe side: skip fully matched probes.
        let probe_injective = match sig_side {
            Side::Left => mode.right_injective,
            Side::Right => mode.left_injective,
        };
        let mut found = 0usize;
        let mut consumed = 0u64;
        'probes: for (probe_id, cands) in plans {
            if self.out_of_budget() {
                break;
            }
            if probe_injective && self.matched(sig_side.flip(), probe_id) {
                continue;
            }
            for (k, cand) in cands.into_iter().enumerate() {
                // Deadline re-check inside the consumption loop, so a
                // probe with an enormous candidate list (e.g. partial mode
                // on skewed data) honors the budget too.
                if k % BUDGET_CHECK_STRIDE == BUDGET_CHECK_STRIDE - 1 && self.out_of_budget() {
                    break 'probes;
                }
                consumed += 1;
                let (lt, rt) = match sig_side {
                    Side::Left => (cand, probe_id),
                    Side::Right => (probe_id, cand),
                };
                if self.try_match(rel, lt, rt) {
                    found += 1;
                    if probe_injective {
                        break;
                    }
                }
            }
        }
        crate::obs::counter("sig.probe.candidates_consumed", consumed);
        crate::obs::counter("sig.probe.matches", found as u64);
        found
    }

    /// Step 3 (Alg. 3 lines 5–13): greedy completion over the remaining
    /// compatible tuples. Returns the number of matches added.
    ///
    /// Only *open* tuples take part: under an injective side, a tuple the
    /// signature passes matched is left out, since consumption would
    /// reject it anyway. Matched tuples stay matched, so this drops exactly
    /// the pairs consumption would reject, and the ranking key below is total,
    /// so each remaining list keeps its order: the match is unchanged.
    ///
    /// Like the signature passes, candidate discovery fans out across
    /// workers while the greedy consumption stays sequential. Each left
    /// tuple's candidates are ranked by optimistic pair score (ties by
    /// tuple id), so the greedy choice is deterministic instead of
    /// inheriting whatever order the candidate index produced.
    fn complete(&mut self, rel: RelId) -> usize {
        if self.out_of_budget() {
            return 0;
        }
        let _span = crate::obs::span("signature.complete");
        let mode = self.cfg.mode;
        let (left, right) = (self.state.left(), self.state.right());
        let open_left: Vec<&Tuple> = (left.tuples(rel).iter())
            .filter(|t| !(mode.left_injective && self.matched(Side::Left, t.id())))
            .collect();
        let open_right: Vec<&Tuple> = (right.tuples(rel).iter())
            .filter(|t| !(mode.right_injective && self.matched(Side::Right, t.id())))
            .collect();
        let partial = self.cfg.partial;
        let lambda = self.cfg.score.lambda;
        // Same shared-flag budget latch as the probe discovery: the ranking
        // work per left tuple can dominate the run on dense inputs, so long
        // completions must honor the deadline mid-fan-out too.
        let deadline = self.deadline;
        let expired = AtomicBool::new(false);
        // With no open tuple on either side there is nothing to index or
        // rank; the counters below still report zeros.
        let plans: Vec<(TupleId, Vec<TupleId>)> = if open_left.is_empty() || open_right.is_empty() {
            Vec::new()
        } else {
            let index = CandidateIndex::build(open_right);
            ic_pool::par_map_min_chunk(&open_left, PAR_CANDIDATES_MIN_TUPLES, |&t| {
                if deadline.is_some() {
                    if expired.load(Ordering::Relaxed) {
                        return (t.id(), Vec::new());
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        expired.store(true, Ordering::Relaxed);
                        return (t.id(), Vec::new());
                    }
                }
                // Complete matches restrict candidates to compatible tuples;
                // the partial variant (Sec. 6.3) only requires a shared
                // constant.
                let candidates = if partial {
                    index.overlap_candidates(t)
                } else {
                    index.compatible_candidates(right, t)
                };
                let mut ranked: Vec<(TupleId, f64)> = candidates
                    .into_iter()
                    .map(|rt| {
                        let cand = right.tuple(rt).expect("candidate tuple exists");
                        (rt, optimistic_pair_score(t, cand, lambda))
                    })
                    .collect();
                ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
                (t.id(), ranked.into_iter().map(|(rt, _)| rt).collect())
            })
        };
        self.timed_out |= expired.load(Ordering::Relaxed);
        if crate::obs::active() {
            crate::obs::counter(
                "sig.complete.candidates_found",
                plans.iter().map(|(_, c)| c.len() as u64).sum(),
            );
        }
        let mut found = 0usize;
        let mut consumed = 0u64;
        'left: for (lt, cands) in plans {
            if self.out_of_budget() {
                break;
            }
            for (k, rt) in cands.into_iter().enumerate() {
                // Budget fix: the completion loop used to run to the end of
                // a tuple's candidate list no matter how long it was; check
                // the deadline on a stride so `timed_out` is honored here
                // too.
                if k % BUDGET_CHECK_STRIDE == BUDGET_CHECK_STRIDE - 1 && self.out_of_budget() {
                    break 'left;
                }
                consumed += 1;
                if self.try_match(rel, lt, rt) {
                    found += 1;
                    if mode.left_injective {
                        break;
                    }
                }
            }
        }
        crate::obs::counter("sig.complete.candidates_consumed", consumed);
        crate::obs::counter("sig.complete.matches", found as u64);
        found
    }
}

/// Runs the signature algorithm on two instances sharing `catalog`'s schema.
pub fn signature_match(
    left: &Instance,
    right: &Instance,
    catalog: &Catalog,
    cfg: &SignatureConfig,
) -> SignatureOutcome {
    signature_match_seeded(left, right, catalog, cfg, None, None)
}

/// Like [`signature_match`], but optionally seeded with prebuilt
/// [`InstanceSigMaps`] for either side, skipping the per-relation
/// signature-map builds for a seeded side.
///
/// **Bit-identity contract**: provided the maps were built (or repaired)
/// over exactly the instances passed here, with the same `partial` /
/// `max_signatures_per_tuple` settings as `cfg`, the outcome is
/// byte-identical to [`signature_match`] — the seeded maps are structurally
/// equal to the maps a fresh run builds, and every phase after the build is
/// unchanged. The only observable difference is wall-clock (`elapsed`) and,
/// under a budget, that a seeded run cannot time out *inside* a build it
/// never performs.
///
/// # Panics
/// Panics if a seeded side's maps were built under a different `partial` /
/// `max_signatures_per_tuple` configuration than `cfg`.
pub fn signature_match_seeded(
    left: &Instance,
    right: &Instance,
    catalog: &Catalog,
    cfg: &SignatureConfig,
    left_maps: Option<&InstanceSigMaps>,
    right_maps: Option<&InstanceSigMaps>,
) -> SignatureOutcome {
    for maps in [left_maps, right_maps].into_iter().flatten() {
        assert!(
            maps.compatible_with(cfg),
            "seeded signature maps were built under a different partial/cap configuration"
        );
    }
    let _span = crate::obs::span("signature");
    let start = Instant::now();
    let mut run = Run {
        state: MatchState::new(left, right),
        cfg: *cfg,
        seen: (!cfg.mode.left_injective && !cfg.mode.right_injective).then(FxHashSet::default),
        deadline: cfg.budget.map(|b| start + b),
        timed_out: false,
    };

    let mut sig_matches = 0usize;
    for rel in catalog.schema().rel_ids() {
        sig_matches += run.find_sig_matches(rel, Side::Left, left_maps.and_then(|m| m.sigmap(rel)));
        sig_matches +=
            run.find_sig_matches(rel, Side::Right, right_maps.and_then(|m| m.sigmap(rel)));
    }
    let sig_details = score_state(&run.state, &cfg.score, catalog);
    let sig_score = sig_details.score;

    let mut exhaustive_matches = 0usize;
    for rel in catalog.schema().rel_ids() {
        exhaustive_matches += run.complete(rel);
    }
    // A rejected pair rolls the state back, so when completion added none
    // the state is the one just scored.
    let details = if exhaustive_matches == 0 {
        sig_details
    } else {
        score_state(&run.state, &cfg.score, catalog)
    };
    let final_score = details.score;

    let best = InstanceMatch {
        pairs: run.state.pairs().collect(),
        details,
    };
    crate::obs::counter("sig.matches.signature", sig_matches as u64);
    crate::obs::counter("sig.matches.exhaustive", exhaustive_matches as u64);
    SignatureOutcome {
        best,
        stats: SignatureStats {
            sig_matches,
            exhaustive_matches,
            sig_score,
            final_score,
        },
        elapsed: start.elapsed(),
        timed_out: run.timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::Schema;

    const EPS: f64 = 1e-9;

    #[test]
    fn subsets_desc_order_and_content() {
        let mask = 0b1011u128;
        let subs = subsets_desc(mask, 1000);
        assert_eq!(subs.len(), 7); // non-empty subsets of a 3-bit mask
        assert_eq!(subs[0], mask);
        // Decreasing popcount.
        for w in subs.windows(2) {
            assert!(w[0].count_ones() >= w[1].count_ones());
        }
        // All are subsets.
        assert!(subs.iter().all(|s| s & mask == *s && *s != 0));
        // Cap respected.
        assert_eq!(subsets_desc(mask, 3).len(), 3);
    }

    #[test]
    fn identical_ground_instances() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, b]);
        l.insert(rel, vec![b, a]);
        let r = l.clone();
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert!((out.best.score() - 1.0).abs() < EPS);
        assert_eq!(out.stats.sig_matches, 2);
        assert_eq!(out.stats.exhaustive_matches, 0);
    }

    #[test]
    fn isomorphic_with_nulls_scores_one() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1, a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![n2, a]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert!((out.best.score() - 1.0).abs() < EPS);
    }

    #[test]
    fn crossed_null_positions_found_in_completion() {
        // I = {(N, b)}, I' = {(a, M)}: no signature-based match (maximal
        // signatures are on different attribute sets), found in step 3.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n, b]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, m]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(out.stats.sig_matches, 0);
        assert_eq!(out.stats.exhaustive_matches, 1);
        assert_eq!(out.best.pairs.len(), 1);
        assert!(out.best.score() > 0.0);
    }

    #[test]
    fn subset_signature_found_in_first_pass() {
        // Left tuple has fewer constants: (a, N); right is (a, b). The
        // left maximal signature [A:a] is a signature of the right tuple.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, n]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, b]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(out.stats.sig_matches, 1);
        assert_eq!(out.stats.exhaustive_matches, 0);
    }

    #[test]
    fn superset_signature_found_in_second_pass() {
        // Left tuple has more constants than right: (a, b) vs (a, M):
        // pass 1 (left sigmap, right probes) cannot hit [A:a, B:b] with the
        // right tuple's only constant a, but pass 2 indexes the right side's
        // maximal signature [A:a] and probes with the left tuple.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let m = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, b]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, m]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(out.stats.sig_matches, 1);
    }

    #[test]
    fn one_to_one_respects_injectivity() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        l.insert(rel, vec![a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(out.best.pairs.len(), 1);
        assert!(out.best.is_left_injective() && out.best.is_right_injective());
    }

    #[test]
    fn general_mode_matches_n_to_m() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        l.insert(rel, vec![a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        let cfg = SignatureConfig {
            mode: MatchMode::general(),
            ..Default::default()
        };
        let out = signature_match(&l, &r, &cat, &cfg);
        assert_eq!(out.best.pairs.len(), 2);
        assert!((out.best.score() - 1.0).abs() < EPS);
    }

    #[test]
    fn general_mode_never_duplicates_pairs() {
        // A pair reachable both via signatures and the completion step must
        // appear exactly once in the match.
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = ic_model::RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        let cfg = SignatureConfig {
            mode: MatchMode::general(),
            ..Default::default()
        };
        let out = signature_match(&l, &r, &cat, &cfg);
        assert_eq!(out.best.pairs.len(), 1);
        let mut seen = ic_model::FxHashSet::default();
        for p in &out.best.pairs {
            assert!(seen.insert((p.left, p.right)), "duplicate pair");
        }
    }

    #[test]
    fn value_consistency_enforced_across_pairs() {
        // Shared left null forced to two different constants: only one of
        // the two candidate pairs can be kept.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b, c, d) = (
            cat.konst("a"),
            cat.konst("b"),
            cat.konst("c"),
            cat.konst("d"),
        );
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, n]);
        l.insert(rel, vec![c, n]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, b]); // forces n -> b
        r.insert(rel, vec![c, d]); // would force n -> d
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(out.best.pairs.len(), 1);
    }

    #[test]
    fn partial_mode_matches_conflicting_tuples() {
        // (a, x) vs (a, y): complete mode finds nothing, partial mode pairs
        // them on the shared signature [A:a].
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, x, y) = (cat.konst("a"), cat.konst("x"), cat.konst("y"));
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, x]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, y]);
        let complete = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(complete.best.pairs.len(), 0);
        let cfg = SignatureConfig {
            partial: true,
            ..Default::default()
        };
        let partial = signature_match(&l, &r, &cat, &cfg);
        assert_eq!(partial.best.pairs.len(), 1);
        // One aligned cell of two: score 2·(1/2)/4 = 0.25... per-tuple:
        // pair score = 1 + 0 = 1; tuple scores 1 and 1; total 2/4.
        assert!((partial.best.score() - 0.5).abs() < EPS);
    }

    #[test]
    fn stats_attribute_steps() {
        // One signature-based match and one completion match.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b, c) = (cat.konst("a"), cat.konst("b"), cat.konst("c"));
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, b]); // sig match with (a, b)
        l.insert(rel, vec![n, c]); // crossed nulls: completion
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, b]);
        r.insert(rel, vec![a, m]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(out.stats.sig_matches, 1);
        assert_eq!(out.stats.exhaustive_matches, 1);
        assert!(out.stats.final_score >= out.stats.sig_score);
    }

    #[test]
    fn empty_instances_score_one() {
        let cat = Catalog::new(Schema::single("R", &["A"]));
        let l = Instance::new("I", &cat);
        let r = Instance::new("J", &cat);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert_eq!(out.best.score(), 1.0);
    }

    #[test]
    fn unbounded_run_never_reports_timeout() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a]);
        let r = l.clone();
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        assert!(!out.timed_out);
        assert_eq!(out.best.pairs.len(), 1);
    }

    #[test]
    fn zero_budget_times_out_with_empty_match() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let mut l = Instance::new("I", &cat);
        let mut r = Instance::new("J", &cat);
        for i in 0..20 {
            let (a, b) = (cat.konst(&format!("a{i}")), cat.konst(&format!("b{i}")));
            l.insert(rel, vec![a, b]);
            r.insert(rel, vec![a, b]);
        }
        let cfg = SignatureConfig {
            budget: Some(Duration::ZERO),
            ..Default::default()
        };
        let out = signature_match(&l, &r, &cat, &cfg);
        assert!(out.timed_out);
        assert_eq!(out.best.pairs.len(), 0);
        // The partial result is still scored and internally consistent.
        assert!(out.best.score() >= 0.0);
    }

    /// Completion and scoring work only where they can still change the
    /// match. Between identical instances the probe decides every tuple, so
    /// completion finds no candidate and the run scores once. Under
    /// `MatchMode::general()` no tuple is ever decided, so completion still
    /// ranks the one compatible candidate of every left tuple.
    #[test]
    fn completion_and_scoring_skip_decided_tuples() {
        use crate::obs::{observe, MemorySink, Report};
        use std::sync::Arc;
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let mut l = Instance::new("I", &cat);
        for i in 0..6 {
            let a = cat.konst(&format!("a{i}"));
            let b = if i % 2 == 0 {
                cat.fresh_null()
            } else {
                cat.konst("b")
            };
            l.insert(rel, vec![a, b]);
        }
        let r = l.clone();
        let observed = |mode: MatchMode| -> Report {
            let sink = Arc::new(MemorySink::new());
            let cfg = SignatureConfig {
                mode,
                ..Default::default()
            };
            let out = {
                let _obs = observe("work-bound", sink.clone());
                signature_match(&l, &r, &cat, &cfg)
            };
            assert_eq!(
                (out.stats.sig_matches, out.stats.exhaustive_matches),
                (6, 0)
            );
            assert!((out.best.score() - 1.0).abs() < EPS);
            sink.last().expect("one report per observation")
        };
        // A counter that never moved from 0 has no key in the report.
        let count = |report: &Report, name: &str| report.counter(name).unwrap_or(0);
        let one_to_one = observed(MatchMode::one_to_one());
        assert_eq!(count(&one_to_one, "sig.complete.candidates_found"), 0);
        assert_eq!(count(&one_to_one, "score.batches"), 1);
        let general = observed(MatchMode::general());
        assert_eq!(count(&general, "sig.complete.candidates_found"), 6);
        assert_eq!(count(&general, "score.batches"), 1);
    }

    #[test]
    fn repair_touches_each_tuple_once_and_equals_fresh_build() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let mut old = Instance::new("I", &cat);
        for i in 0..8 {
            let a = cat.konst(&format!("a{}", i % 3));
            let b = if i % 2 == 0 {
                cat.fresh_null()
            } else {
                cat.konst("b")
            };
            old.insert(rel, vec![a, b]);
        }
        let (x, n) = (cat.konst("x"), cat.fresh_null());
        let delta = Delta::new(vec![
            DeltaOp::Delete { id: TupleId(3) },
            DeltaOp::Modify {
                id: TupleId(5),
                attr: ic_model::AttrId(1),
                value: n,
            },
            DeltaOp::Insert {
                rel,
                values: vec![x, x],
            },
            // The inserted tuple again: still one index operation.
            DeltaOp::Modify {
                id: TupleId(8),
                attr: ic_model::AttrId(0),
                value: n,
            },
        ]);
        let mut new = old.clone();
        delta.apply(&mut new).unwrap();
        // Then empty buckets: tuples 1 and 7 are the last with constants at
        // both A and B, and tuple 8 the last with a constant at B only.
        let emptying = Delta::new(vec![
            DeltaOp::Delete { id: TupleId(1) },
            DeltaOp::Modify {
                id: TupleId(7),
                attr: ic_model::AttrId(1),
                value: n,
            },
            DeltaOp::Delete { id: TupleId(8) },
        ]);
        let mut newer = new.clone();
        emptying.apply(&mut newer).unwrap();
        for partial in [false, true] {
            let cfg = SignatureConfig {
                partial,
                ..Default::default()
            };
            let mut maps = InstanceSigMaps::build(&old, &cfg);
            // Delete 1, modify 2 (unindex + index), insert 1.
            assert_eq!(maps.repair(&old, &new, &delta), 4);
            assert_eq!(maps, InstanceSigMaps::build(&new, &cfg));
            // Buckets {A, B}, {A} and {B}; only {A} survives the deletes.
            assert_eq!(maps.rels[0].buckets.len(), 3);
            assert_eq!(maps.repair(&new, &newer, &emptying), 4);
            assert_eq!(maps.rels[0].buckets.len(), 1);
            assert_eq!(maps, InstanceSigMaps::build(&newer, &cfg));
        }
    }
}

#[cfg(test)]
mod wide_relation_tests {
    use super::*;
    use ic_model::Schema;

    /// Relations wider than 128 attributes cannot use bitmask signatures;
    /// the algorithm must still match everything via the completion step.
    #[test]
    fn arity_above_128_falls_back_to_completion() {
        let names: Vec<String> = (0..130).map(|i| format!("A{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut cat = Catalog::new(Schema::single("W", &refs));
        let rel = ic_model::RelId(0);
        let mut left = Instance::new("I", &cat);
        let mut right = Instance::new("J", &cat);
        for row in 0..5 {
            let vals: Vec<ic_model::Value> = (0..130)
                .map(|c| cat.konst(&format!("v{row}_{c}")))
                .collect();
            left.insert(rel, vals.clone());
            right.insert(rel, vals);
        }
        let out = signature_match(&left, &right, &cat, &SignatureConfig::default());
        assert_eq!(out.stats.sig_matches, 0, "no bitmask signatures possible");
        assert_eq!(out.stats.exhaustive_matches, 5);
        assert!((out.best.score() - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod wide_u128_tests {
    use super::*;
    use ic_model::Schema;

    /// Arity between 65 and 128 now uses bitmask signatures (u128 masks).
    #[test]
    fn arity_between_65_and_128_uses_signatures() {
        let names: Vec<String> = (0..80).map(|i| format!("A{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut cat = Catalog::new(Schema::single("W", &refs));
        let rel = ic_model::RelId(0);
        let mut left = Instance::new("I", &cat);
        let mut right = Instance::new("J", &cat);
        for row in 0..4 {
            let mut vals: Vec<ic_model::Value> =
                (0..80).map(|c| cat.konst(&format!("v{row}_{c}"))).collect();
            left.insert(rel, vals.clone());
            // Right: null out a late attribute (position 79 needs the high
            // mask word).
            vals[79] = cat.fresh_null();
            right.insert(rel, vals);
        }
        let out = signature_match(&left, &right, &cat, &SignatureConfig::default());
        assert_eq!(out.stats.sig_matches, 4, "signature pass must fire");
        assert_eq!(out.best.pairs.len(), 4);
        assert!(out.best.score() > 0.9);
    }
}

#[cfg(test)]
mod mode_tests {
    use super::*;
    use ic_model::Schema;

    /// Paper Sec. 4.3: "multiple patient records for a person with missing
    /// information that get merged into a complete record" — requires a
    /// left-injective (but not right-injective) mapping.
    #[test]
    fn patient_merge_requires_left_functional_mode() {
        let mut cat = Catalog::new(Schema::single("Patient", &["Name", "Phone", "Insurance"]));
        let rel = ic_model::RelId(0);
        let alice = cat.konst("Alice");
        let phone = cat.konst("555-1234");
        let ins = cat.konst("ACME");
        let (n1, n2) = (cat.fresh_null(), cat.fresh_null());
        // Two partial records...
        let mut left = Instance::new("fragments", &cat);
        left.insert(rel, vec![alice, phone, n1]);
        left.insert(rel, vec![alice, n2, ins]);
        // ...merged into one complete record.
        let mut right = Instance::new("merged", &cat);
        right.insert(rel, vec![alice, phone, ins]);

        let cfg = SignatureConfig {
            mode: MatchMode::left_functional(),
            ..Default::default()
        };
        let out = signature_match(&left, &right, &cat, &cfg);
        assert_eq!(out.best.pairs.len(), 2, "both fragments map to the merge");
        assert!(out.best.is_left_injective());
        assert!(!out.best.is_right_injective());
        // Strictly 1-1 mode can only match one fragment.
        let strict = signature_match(&left, &right, &cat, &SignatureConfig::default());
        assert_eq!(strict.best.pairs.len(), 1);
        assert!(out.best.score() > strict.best.score());
    }

    /// The same pairs pushed in any order give the same score (score is a
    /// function of the pair set, not the push order).
    #[test]
    fn score_is_order_independent() {
        use crate::score::score_state;
        use crate::state::MatchState;
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = ic_model::RelId(0);
        let a = cat.konst("a");
        let (n1, n2, m1, m2) = (
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
        );
        let mut l = Instance::new("I", &cat);
        let t0 = l.insert(rel, vec![a, n1]);
        let t1 = l.insert(rel, vec![n2, a]);
        let mut r = Instance::new("J", &cat);
        let u0 = r.insert(rel, vec![a, m1]);
        let u1 = r.insert(rel, vec![m2, a]);
        let cfgs = ScoreConfig::default();
        let mut s1 = MatchState::new(&l, &r);
        s1.try_push_pair(rel, t0, u0, false).unwrap();
        s1.try_push_pair(rel, t1, u1, false).unwrap();
        let mut s2 = MatchState::new(&l, &r);
        s2.try_push_pair(rel, t1, u1, false).unwrap();
        s2.try_push_pair(rel, t0, u0, false).unwrap();
        let a1 = score_state(&s1, &cfgs, &cat).score;
        let a2 = score_state(&s2, &cfgs, &cat).score;
        assert!((a1 - a2).abs() < 1e-12);
    }
}
