//! Homomorphism and isomorphism checks between instances with labeled nulls.
//!
//! A homomorphism `h : adom(I) → adom(J)` fixes constants and maps every
//! tuple of `I` onto a tuple of `J` (paper Sec. 2). The check is the
//! classical NP-complete problem; we implement backtracking with
//! candidate indexes and fail-first ordering, which handles the instances
//! produced by the data-exchange substrate comfortably. The paper's
//! data-exchange evaluation (Sec. 7.2) uses exactly this primitive to decide
//! whether a generated solution is universal with respect to a core.

use crate::compat::CandidateIndex;
use ic_model::{FxHashMap, Instance, NullId, RelId, Tuple, TupleId, Value};

/// A found homomorphism: the assignment of the left instance's nulls plus
/// the witness tuple mapping.
#[derive(Debug, Clone, Default)]
pub struct Homomorphism {
    /// Image of each null of `I` (a constant or a null of `J`).
    pub assignment: FxHashMap<NullId, Value>,
    /// For each left tuple, the right tuple it maps onto.
    pub tuple_map: FxHashMap<TupleId, TupleId>,
}

/// Whether left tuple `t` can map onto right tuple `u` under (an extension
/// of) `assign`: constants must match exactly; nulls must map consistently.
fn tuple_maps_onto(t: &Tuple, u: &Tuple, assign: &FxHashMap<NullId, Value>) -> bool {
    t.values().iter().zip(u.values()).all(|(&a, &b)| match a {
        Value::Const(_) => a == b,
        Value::Null(n) => assign.get(&n).is_none_or(|&img| img == b),
    })
}

/// Extends `assign` so that `t` maps onto `u`; records the newly bound
/// nulls in `bound` for backtracking. Returns `false` (without completing
/// the bindings) if inconsistent.
fn bind_tuple(
    t: &Tuple,
    u: &Tuple,
    assign: &mut FxHashMap<NullId, Value>,
    bound: &mut Vec<NullId>,
) -> bool {
    for (&a, &b) in t.values().iter().zip(u.values()) {
        match a {
            Value::Const(_) => {
                if a != b {
                    return false;
                }
            }
            Value::Null(n) => match assign.get(&n) {
                Some(&img) => {
                    if img != b {
                        return false;
                    }
                }
                None => {
                    assign.insert(n, b);
                    bound.push(n);
                }
            },
        }
    }
    true
}

/// Searches for a homomorphism from `left` to `right`. Returns the witness
/// if one exists, `None` otherwise.
///
/// `num_relations` of both instances must agree (same schema).
pub fn find_homomorphism(left: &Instance, right: &Instance) -> Option<Homomorphism> {
    assert_eq!(
        left.num_relations(),
        right.num_relations(),
        "instances must share a schema"
    );
    // Candidate lists: right tuples whose constants cover the left tuple's.
    // A left constant requires the identical right constant (h is identity
    // on constants and does not touch the right instance).
    let mut work: Vec<(RelId, TupleId, Vec<TupleId>)> = Vec::new();
    for rel_idx in 0..left.num_relations() {
        let rel = RelId(rel_idx as u16);
        let index = CandidateIndex::build(right.tuples(rel));
        for t in left.tuples(rel) {
            let empty = FxHashMap::default();
            let candidates: Vec<TupleId> = index
                .c_compatible_candidates(right, t)
                .into_iter()
                .filter(|&uid| {
                    let u = right.tuple(uid).expect("candidate exists");
                    tuple_maps_onto(t, u, &empty)
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            work.push((rel, t.id(), candidates));
        }
    }
    // Fail-first: fewest candidates first.
    work.sort_by_key(|(_, _, c)| c.len());

    let mut assign: FxHashMap<NullId, Value> = FxHashMap::default();
    let mut tuple_map: FxHashMap<TupleId, TupleId> = FxHashMap::default();

    // Iterative backtracking (instances can have tens of thousands of
    // tuples; recursion would risk the stack). Each frame records the next
    // candidate index to try for work item `i` and the nulls bound by the
    // currently committed candidate.
    struct Frame {
        next_candidate: usize,
        bound: Vec<NullId>,
        committed: bool,
    }
    let mut frames: Vec<Frame> = vec![Frame {
        next_candidate: 0,
        bound: Vec::new(),
        committed: false,
    }];

    loop {
        let depth = frames.len() - 1;
        if depth == work.len() {
            // All work items matched.
            return Some(Homomorphism {
                assignment: assign,
                tuple_map,
            });
        }
        let (_, tid, candidates) = &work[depth];
        // Undo the previously committed candidate at this depth, if any.
        {
            let frame = frames.last_mut().expect("frame exists");
            if frame.committed {
                for n in frame.bound.drain(..) {
                    assign.remove(&n);
                }
                tuple_map.remove(tid);
                frame.committed = false;
            }
        }
        let start = frames.last().expect("frame exists").next_candidate;
        let t = left.tuple(*tid).expect("left tuple exists");
        let mut advanced = false;
        for (k, &uid) in candidates.iter().enumerate().skip(start) {
            let u = right.tuple(uid).expect("right tuple exists");
            let mut bound = Vec::new();
            if bind_tuple(t, u, &mut assign, &mut bound) {
                tuple_map.insert(*tid, uid);
                let frame = frames.last_mut().expect("frame exists");
                frame.next_candidate = k + 1;
                frame.bound = bound;
                frame.committed = true;
                frames.push(Frame {
                    next_candidate: 0,
                    bound: Vec::new(),
                    committed: false,
                });
                advanced = true;
                break;
            }
            // bind_tuple may have partially bound before failing.
            for n in bound {
                assign.remove(&n);
            }
        }
        if !advanced {
            frames.pop();
            if frames.is_empty() {
                return None;
            }
        }
    }
}

/// # Example
///
/// ```
/// use ic_model::{Catalog, Instance, Schema};
/// use ic_core::is_homomorphic;
///
/// let mut cat = Catalog::new(Schema::single("R", &["A"]));
/// let rel = cat.schema().rel("R").unwrap();
/// let c = cat.konst("c");
/// let n = cat.fresh_null();
/// let mut incomplete = Instance::new("I", &cat);
/// incomplete.insert(rel, vec![n]);
/// let mut ground = Instance::new("J", &cat);
/// ground.insert(rel, vec![c]);
///
/// assert!(is_homomorphic(&incomplete, &ground));  // N ↦ c
/// assert!(!is_homomorphic(&ground, &incomplete)); // constants are fixed
/// ```
/// Whether a homomorphism `left → right` exists.
pub fn is_homomorphic(left: &Instance, right: &Instance) -> bool {
    find_homomorphism(left, right).is_some()
}

/// Whether the two instances are homomorphically equivalent (mutual
/// homomorphisms) — e.g. two universal solutions of the same data-exchange
/// scenario.
pub fn homomorphically_equivalent(left: &Instance, right: &Instance) -> bool {
    is_homomorphic(left, right) && is_homomorphic(right, left)
}

/// Whether the instances are isomorphic: a bijective tuple matching under a
/// *null-to-null bijection* (they represent the same incomplete database).
pub fn isomorphic(left: &Instance, right: &Instance) -> bool {
    assert_eq!(
        left.num_relations(),
        right.num_relations(),
        "instances must share a schema"
    );
    for rel_idx in 0..left.num_relations() {
        let rel = RelId(rel_idx as u16);
        if left.tuples(rel).len() != right.tuples(rel).len() {
            return false;
        }
    }

    // Per-relation candidate lists under the stricter iso-compatibility:
    // const ↔ identical const, null ↔ null.
    fn iso_cells_ok(
        t: &Tuple,
        u: &Tuple,
        fwd: &FxHashMap<NullId, NullId>,
        bwd: &FxHashMap<NullId, NullId>,
    ) -> bool {
        t.values()
            .iter()
            .zip(u.values())
            .all(|(&a, &b)| match (a, b) {
                (Value::Const(_), Value::Const(_)) => a == b,
                (Value::Null(n), Value::Null(m)) => {
                    fwd.get(&n).is_none_or(|&x| x == m) && bwd.get(&m).is_none_or(|&x| x == n)
                }
                _ => false,
            })
    }

    let mut work: Vec<(RelId, TupleId, Vec<TupleId>)> = Vec::new();
    for rel_idx in 0..left.num_relations() {
        let rel = RelId(rel_idx as u16);
        let empty_f = FxHashMap::default();
        let empty_b = FxHashMap::default();
        for t in left.tuples(rel) {
            let candidates: Vec<TupleId> = right
                .tuples(rel)
                .iter()
                .filter(|u| iso_cells_ok(t, u, &empty_f, &empty_b))
                .map(Tuple::id)
                .collect();
            if candidates.is_empty() {
                return false;
            }
            work.push((rel, t.id(), candidates));
        }
    }
    work.sort_by_key(|(_, _, c)| c.len());

    struct Ctx<'a> {
        left: &'a Instance,
        right: &'a Instance,
        fwd: FxHashMap<NullId, NullId>,
        bwd: FxHashMap<NullId, NullId>,
        used: ic_model::FxHashSet<TupleId>,
    }

    fn dfs(i: usize, work: &[(RelId, TupleId, Vec<TupleId>)], ctx: &mut Ctx<'_>) -> bool {
        let Some((_, tid, candidates)) = work.get(i) else {
            return true;
        };
        let t = ctx.left.tuple(*tid).expect("left tuple exists");
        for &uid in candidates {
            if ctx.used.contains(&uid) {
                continue;
            }
            let u = ctx.right.tuple(uid).expect("right tuple exists");
            if !iso_cells_ok(t, u, &ctx.fwd, &ctx.bwd) {
                continue;
            }
            // Bind the null bijection.
            let mut bound: Vec<(NullId, NullId)> = Vec::new();
            let mut ok = true;
            for (&a, &b) in t.values().iter().zip(u.values()) {
                if let (Value::Null(n), Value::Null(m)) = (a, b) {
                    match (ctx.fwd.get(&n), ctx.bwd.get(&m)) {
                        (None, None) => {
                            ctx.fwd.insert(n, m);
                            ctx.bwd.insert(m, n);
                            bound.push((n, m));
                        }
                        (Some(&x), _) if x != m => {
                            ok = false;
                            break;
                        }
                        (_, Some(&y)) if y != n => {
                            ok = false;
                            break;
                        }
                        _ => {}
                    }
                }
            }
            if ok {
                ctx.used.insert(uid);
                if dfs(i + 1, work, ctx) {
                    return true;
                }
                ctx.used.remove(&uid);
            }
            for (n, m) in bound {
                ctx.fwd.remove(&n);
                ctx.bwd.remove(&m);
            }
        }
        false
    }

    let mut ctx = Ctx {
        left,
        right,
        fwd: FxHashMap::default(),
        bwd: FxHashMap::default(),
        used: ic_model::FxHashSet::default(),
    };
    dfs(0, &work, &mut ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Catalog, Schema};

    fn cat2() -> Catalog {
        Catalog::new(Schema::single("R", &["A", "B"]))
    }

    #[test]
    fn hom_null_to_constant() {
        // I = {(N, b)} → J = {(a, b)} via N → a.
        let mut cat = cat2();
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n, b]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, b]);
        let h = find_homomorphism(&l, &r).expect("hom exists");
        assert_eq!(h.assignment.len(), 1);
        assert!(!is_homomorphic(&r, &l)); // constants cannot map to nulls
    }

    #[test]
    fn hom_respects_shared_nulls() {
        // I = {(N, a), (b, N)}: N must map to one value satisfying both.
        let mut cat = cat2();
        let rel = RelId(0);
        let (a, b, c) = (cat.konst("a"), cat.konst("b"), cat.konst("c"));
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n, a]);
        l.insert(rel, vec![b, n]);
        // J1 admits N → c for both tuples.
        let mut r1 = Instance::new("J1", &cat);
        r1.insert(rel, vec![c, a]);
        r1.insert(rel, vec![b, c]);
        assert!(is_homomorphic(&l, &r1));
        // J2 forces N → c in one tuple and N → a in the other: no hom.
        let mut r2 = Instance::new("J2", &cat);
        r2.insert(rel, vec![c, a]);
        r2.insert(rel, vec![b, a]);
        // N -> c (first tuple) but second requires N -> a. However N -> a
        // also fails the first tuple? (a, a) not in J2. So no hom.
        assert!(!is_homomorphic(&l, &r2));
    }

    #[test]
    fn hom_folding_two_tuples_onto_one() {
        // I = {(N1, a), (N2, a)} → J = {(b, a)}: both tuples fold.
        let mut cat = cat2();
        let rel = RelId(0);
        let (a, b) = (cat.konst("a"), cat.konst("b"));
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1, a]);
        l.insert(rel, vec![n2, a]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![b, a]);
        let h = find_homomorphism(&l, &r).expect("hom exists");
        assert_eq!(h.tuple_map.len(), 2);
    }

    #[test]
    fn homomorphic_equivalence_of_universal_solutions() {
        // Two universal solutions differing in redundancy.
        let mut cat = cat2();
        let rel = RelId(0);
        let a = cat.konst("a");
        let (n1, n2) = (cat.fresh_null(), cat.fresh_null());
        let mut u1 = Instance::new("U1", &cat);
        u1.insert(rel, vec![a, n1]);
        let mut u2 = Instance::new("U2", &cat);
        u2.insert(rel, vec![a, n2]);
        u2.insert(rel, vec![a, n1]);
        assert!(homomorphically_equivalent(&u1, &u2));
    }

    #[test]
    fn iso_detects_renamed_nulls() {
        let mut cat = cat2();
        let rel = RelId(0);
        let a = cat.konst("a");
        let (n1, n2, m1, m2) = (
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
            cat.fresh_null(),
        );
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1, a]);
        l.insert(rel, vec![n2, n1]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![m2, a]);
        r.insert(rel, vec![m1, m2]);
        assert!(isomorphic(&l, &r));
    }

    #[test]
    fn iso_rejects_merged_nulls() {
        // {(N1), (N2)} is NOT isomorphic to {(N5), (N5)}.
        let mut cat = Catalog::new(Schema::single("U", &["A"]));
        let rel = RelId(0);
        let (n1, n2, n5) = (cat.fresh_null(), cat.fresh_null(), cat.fresh_null());
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1]);
        l.insert(rel, vec![n2]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![n5]);
        r.insert(rel, vec![n5]);
        assert!(!isomorphic(&l, &r));
        // But they are homomorphic both ways (hom. equivalent).
        assert!(homomorphically_equivalent(&l, &r));
    }

    #[test]
    fn iso_rejects_null_constant_swap() {
        let mut cat = Catalog::new(Schema::single("U", &["A"]));
        let rel = RelId(0);
        let c = cat.konst("c");
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![c]);
        assert!(!isomorphic(&l, &r));
        assert!(is_homomorphic(&l, &r));
    }

    #[test]
    fn iso_rejects_different_cardinalities() {
        let mut cat = Catalog::new(Schema::single("U", &["A"]));
        let rel = RelId(0);
        let c = cat.konst("c");
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![c]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![c]);
        r.insert(rel, vec![c]);
        assert!(!isomorphic(&l, &r));
    }

    #[test]
    fn iso_identical_instances() {
        let mut cat = cat2();
        let rel = RelId(0);
        let a = cat.konst("a");
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, n]);
        assert!(isomorphic(&l, &l.clone()));
    }
}
