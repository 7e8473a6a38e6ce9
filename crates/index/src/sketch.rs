//! Per-instance sketches: an active-domain minhash plus relation sizes,
//! the coarse first-cut filter of [`crate::CatalogIndex`].
//!
//! The minhash covers the instance's **constant** active domain only —
//! labeled nulls carry no identity across instances under the paper's
//! semantics, so they are excluded from the domain signature. Hashing uses
//! the in-tree deterministic [`rand`] primitives (the SplitMix64
//! finalizer), so sketches are reproducible across runs, platforms and
//! thread counts.

use ic_model::{Instance, Sym};
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

/// The low 16 bits of each minhash slot of a [`Sketch`] (b-bit minwise
/// hashing with b = 16): 128 bytes that a flat scan compares 8 slots per
/// SSE2 instruction.
pub(crate) type Fingerprint = [u16; SKETCH_SLOTS];

/// Whether two fingerprints agree in some slot. Equal slots have equal
/// low bits, so `false` proves that the two sketches have no matching
/// slot; `true` may be a 16-bit collision. Folds every slot into one
/// 16-bit lane instead of stopping at the first hit, so the loop
/// vectorizes.
pub(crate) fn fingerprints_meet(a: &Fingerprint, b: &Fingerprint) -> bool {
    a.iter()
        .zip(b)
        .fold(0u16, |hit, (x, y)| hit | u16::from(x == y))
        != 0
}

/// A compact, deterministic summary of one instance: its active-domain
/// minhash and the per-relation sizes that feed the one-to-one score
/// upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    /// Minhash slots over the constant active domain. All-`u64::MAX` when
    /// the instance holds no constants (two all-null instances then
    /// estimate Jaccard 1.0, which matches their domain-level similarity).
    slots: [u64; SKETCH_SLOTS],
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
        for Sym(sym) in instance.consts() {
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
        for r in 0..instance.num_relations() {
            let tuples = instance.tuples(ic_model::RelId(r as u16));
            let arity = tuples.first().map_or(0, |t| t.arity());
            rel_tuples.push(tuples.len() as u32);
            rel_arity.push(arity as u32);
            size += (tuples.len() * arity) as u64;
        }
        Self {
            slots,
            rel_tuples: rel_tuples.into_boxed_slice(),
            rel_arity: rel_arity.into_boxed_slice(),
            size,
        }
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

    /// The sketch's [`Fingerprint`].
    pub(crate) fn fingerprint(&self) -> Fingerprint {
        self.slots.map(|s| s as u16)
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
