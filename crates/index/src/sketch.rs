//! Per-instance sketches: a schema fingerprint plus an active-domain
//! minhash, the coarse first-cut filter of [`crate::CatalogIndex`].
//!
//! The minhash covers the instance's **constant** active domain only —
//! labeled nulls carry no identity across instances under the paper's
//! semantics, so they are excluded from the domain signature. Hashing uses
//! the in-tree deterministic [`rand`] primitives (the SplitMix64
//! finalizer), so sketches are reproducible across runs, platforms and
//! thread counts.

use ic_core::{Delta, DeltaError, DeltaOp, InstanceSigMaps};
use ic_model::{FxHashMap, Instance, Sym, TupleId, Value};
use rand::rngs::SplitMix64;
use rand::RngCore;

/// Number of minhash slots. 64 slots bound the Jaccard-estimate standard
/// error at ~1/√64 ≈ 0.125, plenty for a coarse candidate cut, at 512
/// bytes per instance.
pub const SKETCH_SLOTS: usize = 64;

/// Root seed of the sketch hash family. Changing it changes every sketch,
/// so it is part of the index format.
const SKETCH_SEED: u64 = 0x1C5E_ACC4_5EED_0001;

/// One avalanche step of the SplitMix64 finalizer: a cheap, well-mixed
/// 64-bit hash of `x` under `seed`.
#[inline]
pub(crate) fn hash64(seed: u64, x: u64) -> u64 {
    SplitMix64::new(seed ^ x).next_u64()
}

/// The per-slot seeds, derived once from the root seed as a SplitMix64
/// stream.
fn slot_seeds() -> [u64; SKETCH_SLOTS] {
    let mut rng = SplitMix64::new(SKETCH_SEED);
    let mut seeds = [0u64; SKETCH_SLOTS];
    for s in &mut seeds {
        *s = rng.next_u64();
    }
    seeds
}

/// The Jaccard estimate of `matching` agreeing minhash slots. Monotone in
/// `matching`, so ranking by slot matches is ranking by estimate.
pub(crate) fn jaccard_estimate(matching: usize) -> f64 {
    matching as f64 / SKETCH_SLOTS as f64
}

/// Constant-occurrence counts over every cell of one instance — the
/// bookkeeping that makes [`Sketch`] incrementally repairable under a
/// [`Delta`]: an inserted constant only needs a min-update, and a minhash
/// slot only needs recomputing when the *last* occurrence of its
/// minimizing constant leaves the instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchCounts {
    counts: FxHashMap<Sym, u32>,
}

impl SketchCounts {
    /// Records one more occurrence of `sym`; `true` when it just entered
    /// the active domain.
    fn add(&mut self, sym: Sym) -> bool {
        let c = self.counts.entry(sym).or_insert(0);
        *c += 1;
        *c == 1
    }

    /// Records one fewer occurrence of `sym`; `true` when it just left the
    /// active domain.
    fn remove(&mut self, sym: Sym) -> bool {
        match self.counts.get_mut(&sym) {
            Some(c) if *c > 1 => {
                *c -= 1;
                false
            }
            Some(_) => {
                self.counts.remove(&sym);
                true
            }
            None => {
                debug_assert!(false, "removing an untracked constant");
                false
            }
        }
    }

    /// Distinct constants currently tracked.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }
}

/// A compact, deterministic summary of one instance: schema fingerprint,
/// active-domain minhash, and the per-relation tuple counts that feed the
/// one-to-one score upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// Fingerprint of the instance's relational shape (relation count and
    /// arities). Instances of the same catalog share it; it guards against
    /// cross-schema comparisons when sketches travel further.
    schema_fp: u64,
    /// Minhash slots over the constant active domain. All-`u64::MAX` when
    /// the instance holds no constants (two all-null instances then
    /// estimate Jaccard 1.0, which matches their domain-level similarity).
    slots: [u64; SKETCH_SLOTS],
    /// Distinct constants in the active domain.
    distinct_consts: u32,
    /// Per-relation live tuple counts.
    rel_tuples: Box<[u32]>,
    /// Per-relation arity (0 for relations with no tuples — unknown from
    /// the instance alone, and irrelevant to the bound).
    rel_arity: Box<[u32]>,
    /// Total cells (the `size(I)` of the paper's normalizer).
    size: u64,
}

impl Sketch {
    /// Builds the sketch of `instance`. Deterministic: depends only on the
    /// instance contents (constant symbols, relation shape).
    pub fn build(instance: &Instance) -> Self {
        let seeds = slot_seeds();
        let mut slots = [u64::MAX; SKETCH_SLOTS];
        let consts = instance.consts();
        for &Sym(sym) in &consts {
            // One base hash per symbol, remixed per slot: the per-slot
            // minimum over the domain is the classic minhash signature.
            let base = hash64(SKETCH_SEED.rotate_left(17), u64::from(sym));
            for (slot, seed) in slots.iter_mut().zip(seeds.iter()) {
                let h = hash64(*seed, base);
                if h < *slot {
                    *slot = h;
                }
            }
        }
        let mut rel_tuples = Vec::with_capacity(instance.num_relations());
        let mut rel_arity = Vec::with_capacity(instance.num_relations());
        let mut size = 0u64;
        let mut schema_fp = hash64(SKETCH_SEED, instance.num_relations() as u64);
        for r in 0..instance.num_relations() {
            let tuples = instance.tuples(ic_model::RelId(r as u16));
            let arity = tuples.first().map_or(0, |t| t.arity());
            rel_tuples.push(tuples.len() as u32);
            rel_arity.push(arity as u32);
            size += (tuples.len() * arity) as u64;
            schema_fp = hash64(schema_fp, arity as u64);
        }
        Self {
            schema_fp,
            slots,
            distinct_consts: consts.len() as u32,
            rel_tuples: rel_tuples.into_boxed_slice(),
            rel_arity: rel_arity.into_boxed_slice(),
            size,
        }
    }

    /// [`Sketch::build`] plus the per-cell constant counts that
    /// [`apply_delta_repairing_sketch`] needs to keep the sketch live
    /// under mutation. `build_counted(i).0 == build(i)` always.
    pub fn build_counted(instance: &Instance) -> (Self, SketchCounts) {
        let sketch = Self::build(instance);
        let mut counts = SketchCounts::default();
        for (_, t) in instance.iter_all() {
            for v in t.values() {
                if let Some(sym) = v.as_const() {
                    counts.add(sym);
                }
            }
        }
        debug_assert_eq!(counts.distinct() as u32, sketch.distinct_consts);
        (sketch, counts)
    }

    /// The schema fingerprint.
    pub fn schema_fp(&self) -> u64 {
        self.schema_fp
    }

    /// Distinct constants in the active domain.
    pub fn distinct_consts(&self) -> u64 {
        u64::from(self.distinct_consts)
    }

    /// Total cells (`size(I)`).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Minhash estimate of the Jaccard similarity of the two constant
    /// active domains: the fraction of agreeing slots. In `[0, 1]`;
    /// standard error ~1/√[`SKETCH_SLOTS`].
    pub fn domain_jaccard(&self, other: &Sketch) -> f64 {
        jaccard_estimate(self.matching_slots(other))
    }

    /// How many minhash slots agree between the two sketches, in
    /// `0..=SKETCH_SLOTS`: the integer behind [`Self::domain_jaccard`].
    pub(crate) fn matching_slots(&self, other: &Sketch) -> usize {
        self.slots
            .iter()
            .zip(other.slots.iter())
            .filter(|(a, b)| a == b)
            .count()
    }

    /// A sound upper bound on the **one-to-one** similarity score between
    /// the two sketched instances, from sizes alone.
    ///
    /// With `norm = size(I) + size(J)` (score.rs) and every matched tuple
    /// pair contributing at most `arity` per side, a one-to-one match over
    /// relation `r` covers at most `min(|I_r|, |J_r|)` pairs, so
    /// `score ≤ 2·Σ_r min(|I_r|,|J_r|)·arity_r / norm`.
    ///
    /// The bound is **only** valid when both sides of the match are
    /// injective (`MatchMode::one_to_one`) and per-cell scores are capped
    /// at 1 (no string-similarity weight > 0 configured with values that
    /// exceed it; the default configuration qualifies). Callers gate on
    /// that — see `ic-versioning`'s duplicate grouping.
    pub fn one_to_one_score_bound(&self, other: &Sketch) -> f64 {
        let norm = self.size + other.size;
        if norm == 0 {
            return 1.0;
        }
        let mut common_cells = 0u64;
        for r in 0..self.rel_tuples.len().min(other.rel_tuples.len()) {
            let n = self.rel_tuples[r].min(other.rel_tuples[r]);
            let arity = self.rel_arity[r].max(other.rel_arity[r]);
            common_cells += u64::from(n) * u64::from(arity);
        }
        (2.0 * common_cells as f64 / norm as f64).min(1.0)
    }
}

/// Applies `delta` to `instance` in op order while repairing `sketch` and
/// `counts` (and, when given, the signature `maps` via
/// [`ic_core::apply_delta_repairing`]'s per-op core) — the sketch-level
/// counterpart of that function, with the same semantics: the repaired
/// sketch is **bit-identical** to `Sketch::build` over the mutated
/// instance, the first invalid op aborts with every earlier op applied
/// *and* repaired, and the ids of inserted tuples are returned.
///
/// Cost is `O(|delta| · SKETCH_SLOTS)` plus one scan of the remaining
/// active domain per minhash slot whose minimizing constant left the
/// instance — the common insert/modify-heavy deltas never rescan.
pub fn apply_delta_repairing_sketch(
    instance: &mut Instance,
    mut maps: Option<&mut InstanceSigMaps>,
    sketch: &mut Sketch,
    counts: &mut SketchCounts,
    delta: &Delta,
) -> Result<Vec<TupleId>, DeltaError> {
    let mut inserted = Vec::new();
    // Constants whose domain membership flipped at least once; resolved
    // against the final `counts` after all ops applied.
    let mut touched: Vec<Sym> = Vec::new();
    // An invalid op aborts the loop but NOT the slot finalization below —
    // the sketch must reflect the applied prefix exactly even on error.
    let mut failed: Option<DeltaError> = None;
    for op in &delta.ops {
        // Capture the old contents (and home relation) before the op
        // destroys them.
        let old: Option<(ic_model::RelId, Vec<Value>)> = match op {
            DeltaOp::Insert { .. } => None,
            DeltaOp::Delete { id } | DeltaOp::Modify { id, .. } => instance
                .loc(*id)
                .and_then(|(rel, _)| Some((rel, instance.tuple(*id)?.values().to_vec()))),
        };
        // Validate + apply this op (repairing the signature maps when
        // given); an error leaves the sketch consistent with the ops that
        // did apply.
        let single = Delta::new(vec![op.clone()]);
        let ids = match ic_core::apply_delta_repairing(instance, maps.as_deref_mut(), &single) {
            Ok(ids) => ids,
            Err(e) => {
                failed = Some(e);
                break;
            }
        };
        match op {
            DeltaOp::Insert { rel, values } => {
                inserted.extend(ids);
                for v in values {
                    if let Some(sym) = v.as_const() {
                        if counts.add(sym) {
                            touched.push(sym);
                        }
                    }
                }
                let r = rel.0 as usize;
                if sketch.rel_tuples[r] == 0 {
                    sketch.rel_arity[r] = values.len() as u32;
                }
                sketch.rel_tuples[r] += 1;
                sketch.size += values.len() as u64;
            }
            DeltaOp::Delete { id: _ } => {
                let (rel, values) = old.expect("apply validated the tuple exists");
                for v in &values {
                    if let Some(sym) = v.as_const() {
                        if counts.remove(sym) {
                            touched.push(sym);
                        }
                    }
                }
                let r = rel.0 as usize;
                sketch.rel_tuples[r] -= 1;
                if sketch.rel_tuples[r] == 0 {
                    sketch.rel_arity[r] = 0;
                }
                sketch.size -= values.len() as u64;
            }
            DeltaOp::Modify { attr, value, .. } => {
                let (_, values) = old.expect("apply validated the tuple exists");
                let before = values[attr.0 as usize];
                if before != *value {
                    if let Some(sym) = before.as_const() {
                        if counts.remove(sym) {
                            touched.push(sym);
                        }
                    }
                    if let Some(sym) = value.as_const() {
                        if counts.add(sym) {
                            touched.push(sym);
                        }
                    }
                }
            }
        }
    }

    // Resolve the touched constants against the final domain: arrivals
    // min-update their hashes; departures whose hash still owns a slot
    // dirty that slot for recomputation from the remaining domain.
    touched.sort_unstable();
    touched.dedup();
    let seeds = slot_seeds();
    let mut dirty = [false; SKETCH_SLOTS];
    let mut any_dirty = false;
    for &sym in &touched {
        let base = hash64(SKETCH_SEED.rotate_left(17), u64::from(sym.0));
        let present = counts.counts.contains_key(&sym);
        for (i, seed) in seeds.iter().enumerate() {
            let h = hash64(*seed, base);
            if present {
                if h < sketch.slots[i] {
                    sketch.slots[i] = h;
                }
            } else if h == sketch.slots[i] {
                dirty[i] = true;
                any_dirty = true;
            }
        }
    }
    if any_dirty {
        for i in 0..SKETCH_SLOTS {
            if dirty[i] {
                sketch.slots[i] = u64::MAX;
            }
        }
        for &sym in counts.counts.keys() {
            let base = hash64(SKETCH_SEED.rotate_left(17), u64::from(sym.0));
            for i in 0..SKETCH_SLOTS {
                if dirty[i] {
                    let h = hash64(seeds[i], base);
                    if h < sketch.slots[i] {
                        sketch.slots[i] = h;
                    }
                }
            }
        }
    }
    sketch.distinct_consts = counts.distinct() as u32;
    // The relational shape may have changed (first tuple of a relation,
    // last tuple of a relation): refold the fingerprint from the arities.
    let mut fp = hash64(SKETCH_SEED, sketch.rel_arity.len() as u64);
    for &arity in sketch.rel_arity.iter() {
        fp = hash64(fp, u64::from(arity));
    }
    sketch.schema_fp = fp;
    match failed {
        Some(e) => Err(e),
        None => Ok(inserted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Catalog, Instance, RelId, Schema};

    fn catalog() -> Catalog {
        Catalog::new(Schema::single("R", &["a", "b"]))
    }

    #[test]
    fn sketch_is_deterministic_and_null_blind() {
        let mut cat = catalog();
        let a = cat.konst("a");
        let b = cat.konst("b");
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut i = Instance::new("I", &cat);
        i.insert(RelId(0), vec![a, n1]);
        i.insert(RelId(0), vec![b, a]);
        // Same constants, different nulls: identical minhash.
        let mut j = Instance::new("J", &cat);
        j.insert(RelId(0), vec![a, n2]);
        j.insert(RelId(0), vec![b, a]);
        let si = Sketch::build(&i);
        let sj = Sketch::build(&j);
        assert_eq!(si.slots, sj.slots);
        assert_eq!(si.domain_jaccard(&sj), 1.0);
        assert_eq!(si.schema_fp(), sj.schema_fp());
        // Rebuild is bit-identical.
        let si2 = Sketch::build(&i);
        assert_eq!(si.slots, si2.slots);
    }

    #[test]
    fn disjoint_domains_estimate_low_jaccard() {
        let mut cat = catalog();
        let mut i = Instance::new("I", &cat);
        let mut j = Instance::new("J", &cat);
        for x in 0..20 {
            let l = cat.konst(&format!("left{x}"));
            let l2 = cat.konst(&format!("left{x}b"));
            let r = cat.konst(&format!("right{x}"));
            let r2 = cat.konst(&format!("right{x}b"));
            i.insert(RelId(0), vec![l, l2]);
            j.insert(RelId(0), vec![r, r2]);
        }
        let (si, sj) = (Sketch::build(&i), Sketch::build(&j));
        assert!(
            si.domain_jaccard(&sj) < 0.3,
            "disjoint domains must rank low"
        );
        assert_eq!(si.domain_jaccard(&si), 1.0);
    }

    #[test]
    fn repaired_sketch_is_bit_identical_to_fresh_build() {
        let mut cat = catalog();
        let (a, b, c, d) = (
            cat.konst("a"),
            cat.konst("b"),
            cat.konst("c"),
            cat.konst("d"),
        );
        let n = cat.fresh_null();
        let mut inst = Instance::new("I", &cat);
        let t0 = inst.insert(RelId(0), vec![a, b]);
        let t1 = inst.insert(RelId(0), vec![c, n]);
        let cfg = ic_core::SignatureConfig::default();
        let mut maps = InstanceSigMaps::build(&inst, &cfg);
        let (mut sketch, mut counts) = Sketch::build_counted(&inst);

        // One delta mixing all three op kinds. Deleting `t0` drops `b`'s
        // last occurrence, so some minhash slot must be recomputed from
        // the remaining domain; modifying `t1` drops `c` likewise.
        let delta = Delta::new(vec![
            DeltaOp::Insert {
                rel: RelId(0),
                values: vec![d, a],
            },
            DeltaOp::Modify {
                id: t1,
                attr: ic_model::AttrId(0),
                value: d,
            },
            DeltaOp::Delete { id: t0 },
        ]);
        let ids = apply_delta_repairing_sketch(
            &mut inst,
            Some(&mut maps),
            &mut sketch,
            &mut counts,
            &delta,
        )
        .unwrap();
        assert_eq!(ids.len(), 1, "one insert in the delta");

        let (fresh, fresh_counts) = Sketch::build_counted(&inst);
        assert_eq!(sketch, fresh, "repaired sketch == fresh build");
        assert_eq!(counts, fresh_counts);
        assert_eq!(sketch.distinct_consts(), 2); // a, d remain
    }

    #[test]
    fn repaired_sketch_tracks_relation_emptying_and_refill() {
        let mut cat = catalog();
        let a = cat.konst("a");
        let mut inst = Instance::new("I", &cat);
        let t0 = inst.insert(RelId(0), vec![a, a]);
        let (mut sketch, mut counts) = Sketch::build_counted(&inst);
        let before_fp = sketch.schema_fp();

        let empty = Delta::new(vec![DeltaOp::Delete { id: t0 }]);
        apply_delta_repairing_sketch(&mut inst, None, &mut sketch, &mut counts, &empty).unwrap();
        let fresh = Sketch::build(&inst);
        assert_eq!(sketch, fresh, "emptied relation: arity unknown again");
        assert_ne!(sketch.schema_fp(), before_fp, "shape fingerprint moved");
        assert_eq!(sketch.size(), 0);

        let refill = Delta::new(vec![DeltaOp::Insert {
            rel: RelId(0),
            values: vec![a, a],
        }]);
        apply_delta_repairing_sketch(&mut inst, None, &mut sketch, &mut counts, &refill).unwrap();
        assert_eq!(sketch, Sketch::build(&inst));
        assert_eq!(sketch.schema_fp(), before_fp, "shape restored");
    }

    #[test]
    fn failed_op_leaves_prefix_applied_and_sketch_consistent() {
        let mut cat = catalog();
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let mut inst = Instance::new("I", &cat);
        inst.insert(RelId(0), vec![a, a]);
        let (mut sketch, mut counts) = Sketch::build_counted(&inst);

        let delta = Delta::new(vec![
            DeltaOp::Insert {
                rel: RelId(0),
                values: vec![b, b],
            },
            DeltaOp::Delete {
                id: ic_model::TupleId(9999),
            },
        ]);
        let err = apply_delta_repairing_sketch(&mut inst, None, &mut sketch, &mut counts, &delta);
        assert!(err.is_err(), "bogus delete must fail");
        // Same abort semantics as ic_core::apply_delta_repairing: the
        // valid prefix is applied and the sketch reflects it exactly.
        let (fresh, fresh_counts) = Sketch::build_counted(&inst);
        assert_eq!(inst.num_tuples(), 2, "prefix insert applied");
        assert_eq!(sketch, fresh);
        assert_eq!(counts, fresh_counts);
    }

    #[test]
    fn score_bound_tracks_sizes() {
        let mut cat = catalog();
        let a = cat.konst("a");
        let mut small = Instance::new("S", &cat);
        small.insert(RelId(0), vec![a, a]);
        let mut big = Instance::new("B", &cat);
        for _ in 0..9 {
            big.insert(RelId(0), vec![a, a]);
        }
        let (ss, sb) = (Sketch::build(&small), Sketch::build(&big));
        // min(1,9)*2 cells common, norm = 2 + 18 → bound 0.2.
        let bound = ss.one_to_one_score_bound(&sb);
        assert!((bound - 0.2).abs() < 1e-12, "bound {bound}");
        assert_eq!(ss.one_to_one_score_bound(&ss), 1.0);
        let empty = Instance::new("E", &cat);
        let se = Sketch::build(&empty);
        assert_eq!(se.one_to_one_score_bound(&se), 1.0);
    }
}
