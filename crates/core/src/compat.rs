//! Compatible-tuple discovery — the paper's `CompatibleTuples` (Alg. 2).
//!
//! Two tuples are *c-compatible* (`t ∼ t'`, Def. 6.1) if no attribute holds
//! two distinct constants; they are *compatible* (`t ≃ t'`) if value mappings
//! `h_l`, `h_r` with `h_l(t) = h_r(t')` exist — a strictly stronger property,
//! because a null occurring twice cannot map to two different constants.
//!
//! Candidate generation uses per-attribute hash indexes `V_A` over the right
//! instance: for a constant `c`, `V_A[c]` lists the tuples with `t'.A = c`
//! and `V_A[*]` the tuples with a null in `A`. A left tuple's candidates are
//! fetched from its most selective constant attribute and filtered by a
//! direct c-compatibility scan — equivalent to the paper's intersection of
//! all attribute sets but with better constants.

use ic_model::{FxHashMap, Instance, RelId, Sym, Tuple, TupleId, Value};

/// Returns whether `t ∼ t'` (no conflicting constants, Def. 6.1).
pub fn c_compatible(lt: &Tuple, rt: &Tuple) -> bool {
    lt.values()
        .iter()
        .zip(rt.values())
        .all(|(&a, &b)| match (a, b) {
            (Value::Const(x), Value::Const(y)) => x == y,
            _ => true,
        })
}

/// Returns whether `t ≃ t'` (Def. 6.1): value mappings `h_l`, `h_r` with
/// `h_l(t) = h_r(t')` exist. Decided by pair-local unification of the cells.
pub fn pair_compatible(lt: &Tuple, rt: &Tuple) -> bool {
    // Tiny union-find over the values of the two tuples. Slots are created
    // on demand; constants are shared between the sides (they are fixed
    // points of both mappings), nulls are per side.
    #[derive(PartialEq, Eq, Hash)]
    enum Key {
        Const(Sym),
        LeftNull(ic_model::NullId),
        RightNull(ic_model::NullId),
    }
    let mut slots: FxHashMap<Key, u32> = FxHashMap::default();
    let mut parent: Vec<u32> = Vec::new();
    let mut konst: Vec<Option<Sym>> = Vec::new();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            x = parent[x as usize];
        }
        x
    }

    let mut slot_of =
        |v: Value, left: bool, parent: &mut Vec<u32>, konst: &mut Vec<Option<Sym>>| {
            let key = match (v, left) {
                (Value::Const(s), _) => Key::Const(s),
                (Value::Null(n), true) => Key::LeftNull(n),
                (Value::Null(n), false) => Key::RightNull(n),
            };
            *slots.entry(key).or_insert_with(|| {
                let id = parent.len() as u32;
                parent.push(id);
                konst.push(v.as_const());
                id
            })
        };

    for (&a, &b) in lt.values().iter().zip(rt.values()) {
        let sa = slot_of(a, true, &mut parent, &mut konst);
        let sb = slot_of(b, false, &mut parent, &mut konst);
        let ra = find(&mut parent, sa);
        let rb = find(&mut parent, sb);
        if ra == rb {
            continue;
        }
        match (konst[ra as usize], konst[rb as usize]) {
            (Some(x), Some(y)) if x != y => return false,
            (ca, cb) => {
                parent[ra as usize] = rb;
                konst[rb as usize] = cb.or(ca);
            }
        }
    }
    true
}

/// Per-attribute hash index over tuples of one relation of the right
/// instance — the `V_A` maps of Alg. 2.
#[derive(Debug)]
pub struct CandidateIndex {
    /// For each attribute: constant buckets.
    by_const: Vec<FxHashMap<Sym, Vec<TupleId>>>,
    /// For each attribute: tuples with a null in that attribute (`V_A[*]`).
    null_bucket: Vec<Vec<TupleId>>,
    /// All indexed tuple ids (fallback when the probing tuple has no
    /// constants).
    all: Vec<TupleId>,
}

impl CandidateIndex {
    /// Builds the index over `tuples`, all of one relation: usually
    /// `right.tuples(rel)`, or the subset of it still open to matching.
    /// Every candidate list keeps the order of `tuples`.
    pub fn build<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut by_const: Vec<FxHashMap<Sym, Vec<TupleId>>> = Vec::new();
        let mut null_bucket: Vec<Vec<TupleId>> = Vec::new();
        let mut all = Vec::new();
        for t in tuples {
            if all.is_empty() {
                by_const.resize_with(t.arity(), FxHashMap::default);
                null_bucket.resize_with(t.arity(), Vec::new);
            }
            all.push(t.id());
            for (i, &v) in t.values().iter().enumerate() {
                match v {
                    Value::Const(s) => by_const[i].entry(s).or_default().push(t.id()),
                    Value::Null(_) => null_bucket[i].push(t.id()),
                }
            }
        }
        Self {
            by_const,
            null_bucket,
            all,
        }
    }

    /// Returns the ids of right tuples c-compatible with `t`, using the most
    /// selective constant attribute of `t` as the probe and verifying the
    /// remaining attributes by direct scan.
    pub fn c_compatible_candidates(&self, right: &Instance, t: &Tuple) -> Vec<TupleId> {
        if self.all.is_empty() {
            return Vec::new();
        }
        // Pick the constant attribute with the smallest candidate pool.
        let mut best: Option<(usize, usize, Sym)> = None; // (pool, attr, sym)
        for (i, &v) in t.values().iter().enumerate() {
            if let Value::Const(s) = v {
                let pool = self.by_const[i].get(&s).map_or(0, Vec::len) + self.null_bucket[i].len();
                if best.is_none_or(|(bp, _, _)| pool < bp) {
                    best = Some((pool, i, s));
                }
            }
        }
        let pool: Vec<TupleId> = match best {
            None => self.all.clone(), // all-null probe tuple: everything is a candidate
            Some((_, attr, sym)) => {
                let mut v = self.by_const[attr].get(&sym).cloned().unwrap_or_default();
                v.extend_from_slice(&self.null_bucket[attr]);
                v
            }
        };
        pool.into_iter()
            .filter(|&id| {
                let rt = right.tuple(id).expect("indexed tuple exists");
                c_compatible(t, rt)
            })
            .collect()
    }

    /// Returns the ids of right tuples fully *compatible* (`t ≃ t'`) with
    /// `t`: c-compatible candidates filtered by pair-local unification.
    pub fn compatible_candidates(&self, right: &Instance, t: &Tuple) -> Vec<TupleId> {
        self.c_compatible_candidates(right, t)
            .into_iter()
            .filter(|&id| pair_compatible(t, right.tuple(id).expect("indexed tuple exists")))
            .collect()
    }

    /// Returns the ids of right tuples sharing at least one positional
    /// constant with `t` (Property 2's basis) — the weaker candidate
    /// generation of the partial-match variant (Sec. 6.3), where conflicting
    /// constants no longer disqualify a pair. Deduplicated, in first-seen
    /// order; all-null probe tuples get every right tuple.
    pub fn overlap_candidates(&self, t: &Tuple) -> Vec<TupleId> {
        let mut seen = ic_model::FxHashSet::default();
        let mut out = Vec::new();
        let mut any_const = false;
        for (i, &v) in t.values().iter().enumerate() {
            if let Value::Const(s) = v {
                any_const = true;
                if let Some(bucket) = self.by_const.get(i).and_then(|m| m.get(&s)) {
                    for &id in bucket {
                        if seen.insert(id) {
                            out.push(id);
                        }
                    }
                }
            }
        }
        if !any_const {
            return self.all.clone();
        }
        out
    }
}

/// Computes the full compatibility dictionary of Alg. 2 for one relation:
/// every left tuple mapped to its compatible right tuples.
pub fn compatible_tuples(
    left: &Instance,
    right: &Instance,
    rel: RelId,
) -> FxHashMap<TupleId, Vec<TupleId>> {
    let index = CandidateIndex::build(right.tuples(rel));
    left.tuples(rel)
        .iter()
        .map(|t| (t.id(), index.compatible_candidates(right, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Catalog, Schema};

    fn cat3() -> Catalog {
        Catalog::new(Schema::single("R", &["A", "B", "C"]))
    }

    #[test]
    fn c_compat_basic() {
        let mut cat = cat3();
        let rel = RelId(0);
        let (a, b, c) = (cat.konst("a"), cat.konst("b"), cat.konst("c"));
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![a, b, c]);
        let mut r = Instance::new("J", &cat);
        let ok = r.insert(rel, vec![a, n, c]);
        let bad = r.insert(rel, vec![a, b, b]);
        let lt = l.tuple(t).unwrap();
        assert!(c_compatible(lt, r.tuple(ok).unwrap()));
        assert!(!c_compatible(lt, r.tuple(bad).unwrap()));
    }

    #[test]
    fn paper_example_c_compatible_but_not_compatible() {
        // t = ⟨a1, b1, c1⟩, t' = ⟨a1, N1, N1⟩: c-compatible but N1 cannot
        // map to both b1 and c1.
        let mut cat = cat3();
        let rel = RelId(0);
        let (a1, b1, c1) = (cat.konst("a1"), cat.konst("b1"), cat.konst("c1"));
        let n1 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![a1, b1, c1]);
        let mut r = Instance::new("J", &cat);
        let tp = r.insert(rel, vec![a1, n1, n1]);
        let lt = l.tuple(t).unwrap();
        let rt = r.tuple(tp).unwrap();
        assert!(c_compatible(lt, rt));
        assert!(!pair_compatible(lt, rt));
    }

    #[test]
    fn repeated_null_consistent_is_compatible() {
        // t = ⟨b1, b1⟩ against t' = ⟨N1, N1⟩ is compatible (N1 → b1).
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let b1 = cat.konst("b1");
        let n1 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![b1, b1]);
        let mut r = Instance::new("J", &cat);
        let tp = r.insert(rel, vec![n1, n1]);
        assert!(pair_compatible(l.tuple(t).unwrap(), r.tuple(tp).unwrap()));
    }

    #[test]
    fn crossed_nulls_are_compatible() {
        // t = ⟨N1, c⟩, t' = ⟨d, N2⟩: h_l(N1)=d, h_r(N2)=c.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let c = cat.konst("c");
        let d = cat.konst("d");
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![n1, c]);
        let mut r = Instance::new("J", &cat);
        let tp = r.insert(rel, vec![d, n2]);
        assert!(pair_compatible(l.tuple(t).unwrap(), r.tuple(tp).unwrap()));
    }

    #[test]
    fn transitive_null_chain_conflict() {
        // t = ⟨N, N, a⟩, t' = ⟨M, b, M⟩: N~M, N~b ⇒ M~b, and M~a ⇒ conflict.
        let mut cat = cat3();
        let rel = RelId(0);
        let a = cat.konst("a");
        let b = cat.konst("b");
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![n, n, a]);
        let mut r = Instance::new("J", &cat);
        let tp = r.insert(rel, vec![m, b, m]);
        assert!(c_compatible(l.tuple(t).unwrap(), r.tuple(tp).unwrap()));
        assert!(!pair_compatible(l.tuple(t).unwrap(), r.tuple(tp).unwrap()));
    }

    #[test]
    fn candidate_index_prunes_by_constants() {
        let mut cat = cat3();
        let rel = RelId(0);
        let (a, b, c, x) = (
            cat.konst("a"),
            cat.konst("b"),
            cat.konst("c"),
            cat.konst("x"),
        );
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![a, b, c]);
        let mut r = Instance::new("J", &cat);
        let r1 = r.insert(rel, vec![a, b, c]); // exact
        let r2 = r.insert(rel, vec![a, n, c]); // null fills
        let _r3 = r.insert(rel, vec![x, b, c]); // conflicting constant
        let idx = CandidateIndex::build(r.tuples(rel));
        let mut cands = idx.compatible_candidates(&r, l.tuple(t).unwrap());
        cands.sort();
        assert_eq!(cands, vec![r1, r2]);
    }

    #[test]
    fn all_null_probe_matches_everything() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![n]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        r.insert(rel, vec![n]);
        let idx = CandidateIndex::build(r.tuples(rel));
        assert_eq!(idx.compatible_candidates(&r, l.tuple(t).unwrap()).len(), 2);
    }

    #[test]
    fn compatible_tuples_dictionary() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b, x) = (cat.konst("a"), cat.konst("b"), cat.konst("x"));
        let mut l = Instance::new("I", &cat);
        let t1 = l.insert(rel, vec![a, b]);
        let t2 = l.insert(rel, vec![x, x]);
        let mut r = Instance::new("J", &cat);
        let u1 = r.insert(rel, vec![a, b]);
        let dict = compatible_tuples(&l, &r, rel);
        assert_eq!(dict[&t1], vec![u1]);
        assert!(dict[&t2].is_empty());
    }

    #[test]
    fn empty_relation_index() {
        let cat = Catalog::new(Schema::single("R", &["A"]));
        let r = Instance::new("J", &cat);
        let idx = CandidateIndex::build(r.tuples(RelId(0)));
        let mut cat2 = Catalog::new(Schema::single("R", &["A"]));
        let a = cat2.konst("a");
        let mut l = Instance::new("I", &cat2);
        let t = l.insert(RelId(0), vec![a]);
        assert!(idx
            .compatible_candidates(&r, l.tuple(t).unwrap())
            .is_empty());
    }
}

#[cfg(test)]
mod overlap_tests {
    use super::*;
    use ic_model::{Catalog, Schema};

    #[test]
    fn overlap_requires_one_shared_constant() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b, x, y) = (
            cat.konst("a"),
            cat.konst("b"),
            cat.konst("x"),
            cat.konst("y"),
        );
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![a, b]);
        let mut r = Instance::new("J", &cat);
        let shares_a = r.insert(rel, vec![a, y]); // conflicting B, shared A
        let _nothing = r.insert(rel, vec![x, y]); // nothing shared
        let shares_b = r.insert(rel, vec![x, b]);
        let idx = CandidateIndex::build(r.tuples(rel));
        let mut c = idx.overlap_candidates(l.tuple(t).unwrap());
        c.sort();
        assert_eq!(c, vec![shares_a, shares_b]);
    }

    #[test]
    fn overlap_all_null_probe_returns_everything() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let a = cat.konst("a");
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![n]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a]);
        let idx = CandidateIndex::build(r.tuples(rel));
        assert_eq!(idx.overlap_candidates(l.tuple(t).unwrap()).len(), 1);
    }

    #[test]
    fn overlap_is_positional() {
        // Same constant in different positions does NOT overlap.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, z, w) = (cat.konst("a"), cat.konst("z"), cat.konst("w"));
        let mut l = Instance::new("I", &cat);
        let t = l.insert(rel, vec![a, z]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![w, a]); // a in the wrong column
        let idx = CandidateIndex::build(r.tuples(rel));
        assert!(idx.overlap_candidates(l.tuple(t).unwrap()).is_empty());
    }
}
