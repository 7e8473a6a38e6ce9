//! Tuple-level deltas between instance *versions* — the bridge from the
//! versioning substrate to ic-core's signature-map repair
//! ([`ic_core::InstanceSigMaps::repair`]).
//!
//! The version operations in [`crate::ops`] derive each version by cloning
//! and mutating its predecessor, so tuple ids are stable across versions.
//! [`instance_delta`] exploits that: it reconstructs the tuple-level
//! [`Delta`] turning `old` into `new` whenever the evolution is
//! *delta-representable* — per relation, `new`'s storage order is the
//! surviving `old` tuples in their old relative order followed by the
//! inserted tuples, with insert ids consecutive from `old.id_bound()`.
//! That is exactly the shape [`Delta::apply`] reproduces, so
//! `old.clone()` + the delta equals `new` tuple for tuple, position for
//! position, and `old`'s signature maps can be repaired into `new`'s.
//! Shuffled versions return `None` and fall back to a full comparison.

use ic_core::{Delta, DeltaOp};
use ic_model::{AttrId, Instance, RelId, TupleId};

/// Reconstructs the tuple-level delta turning `old` into `new`, or `None`
/// if the evolution is not delta-representable (see the [module
/// docs](self)). Ops are emitted deletes first, then cell modifications,
/// then inserts in id order — applying them to (a clone of) `old`
/// reproduces `new`'s tuples, ids, and storage order exactly. Instance
/// names are not part of the delta.
pub fn instance_delta(old: &Instance, new: &Instance) -> Option<Delta> {
    if old.num_relations() != new.num_relations() {
        return None;
    }
    let bound = old.id_bound() as u32;
    let mut deletes = Vec::new();
    let mut modifies = Vec::new();
    let mut inserts: Vec<(TupleId, RelId, Vec<ic_model::Value>)> = Vec::new();
    for r in 0..old.num_relations() {
        let rel = RelId(r as u16);
        let mut last_old_pos: Option<u32> = None;
        let mut survivors_done = false;
        for t in new.tuples(rel) {
            if t.id().0 < bound {
                // A surviving old tuple: must exist in the same relation,
                // appear before any insert, and keep its relative order.
                let (orel, opos) = old.loc(t.id())?;
                if orel != rel || survivors_done {
                    return None;
                }
                if last_old_pos.is_some_and(|p| opos <= p) {
                    return None;
                }
                last_old_pos = Some(opos);
                let old_t = old.tuple(t.id()).expect("loc implies live");
                for (i, (&nv, &ov)) in t.values().iter().zip(old_t.values()).enumerate() {
                    if nv != ov {
                        modifies.push(DeltaOp::Modify {
                            id: t.id(),
                            attr: AttrId(i as u16),
                            value: nv,
                        });
                    }
                }
            } else {
                survivors_done = true;
                inserts.push((t.id(), rel, t.values().to_vec()));
            }
        }
        for t in old.tuples(rel) {
            let gone = match new.loc(t.id()) {
                None => true,
                // Present in `new` but in a different relation: a move,
                // which the delta model cannot express.
                Some((nrel, _)) if nrel != rel => return None,
                Some(_) => false,
            };
            if gone {
                deletes.push(DeltaOp::Delete { id: t.id() });
            }
        }
    }
    // Inserts must receive the exact ids `new` has: Instance::insert hands
    // out ids from the (never-shrinking) id bound, so they must be
    // consecutive from `old.id_bound()` in emission order.
    inserts.sort_by_key(|(id, _, _)| *id);
    for (i, (id, _, _)) in inserts.iter().enumerate() {
        if id.0 != bound + i as u32 {
            return None;
        }
    }
    let mut ops = deletes;
    ops.append(&mut modifies);
    ops.extend(
        inserts
            .into_iter()
            .map(|(_, rel, values)| DeltaOp::Insert { rel, values }),
    );
    Some(Delta::new(ops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Variant;
    use ic_model::{Catalog, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (Catalog, Instance, RelId) {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = cat.schema().rel("R").unwrap();
        let mut inst = Instance::new("v0", &cat);
        for i in 0..n {
            let a = cat.konst(&format!("a{i}"));
            let b = if i % 4 == 0 {
                cat.fresh_null()
            } else {
                cat.konst(&format!("b{i}"))
            };
            inst.insert(rel, vec![a, b]);
        }
        (cat, inst, rel)
    }

    #[test]
    fn row_removal_roundtrips() {
        let (mut cat, old, rel) = setup(40);
        let v = Variant::RowsRemoved.apply(&old, &mut cat, rel, 0.25, 0, 9);
        let delta = instance_delta(&old, &v.instance).expect("representable");
        assert!(delta
            .ops
            .iter()
            .all(|op| matches!(op, DeltaOp::Delete { .. })));
        let mut replay = old.clone();
        delta.apply(&mut replay).unwrap();
        assert_eq!(replay.tuples(rel), v.instance.tuples(rel));
    }

    #[test]
    fn modifications_and_inserts_roundtrip() {
        let (mut cat, old, rel) = setup(10);
        let mut new = old.clone();
        let x = cat.konst("x");
        let n = cat.fresh_null();
        new.set_value(TupleId(2), AttrId(0), x);
        new.set_value(TupleId(7), AttrId(1), n);
        new.remove(TupleId(4));
        new.insert(rel, vec![x, n]);
        let delta = instance_delta(&old, &new).expect("representable");
        assert_eq!(delta.len(), 4); // 1 delete + 2 modifies + 1 insert
        let mut replay = old.clone();
        delta.apply(&mut replay).unwrap();
        assert_eq!(replay.tuples(rel), new.tuples(rel));
        assert_eq!(replay.id_bound(), new.id_bound());
    }

    #[test]
    fn shuffle_is_not_representable() {
        let (_, old, rel) = setup(30);
        let mut rng = StdRng::seed_from_u64(5);
        let mut new = old.clone();
        crate::ops::shuffle_rows(&mut new, rel, &mut rng);
        assert!(instance_delta(&old, &new).is_none());
    }

    #[test]
    fn delta_repairs_maps_to_fresh_build() {
        let (mut cat, v0, rel) = setup(50);
        let v1 = Variant::RowsRemoved
            .apply(&v0, &mut cat, rel, 0.2, 0, 3)
            .instance;
        let delta = instance_delta(&v0, &v1).expect("row removal is representable");
        let cmp = ic_core::Comparator::new(&cat).build().unwrap();
        let mut maps = cmp.build_maps(&v0).unwrap();
        maps.repair(&v0, &v1, &delta);
        assert_eq!(maps, cmp.build_maps(&v1).unwrap());
    }

    #[test]
    fn identical_instances_give_empty_delta() {
        let (_cat, old, _) = setup(8);
        let delta = instance_delta(&old, &old.clone()).expect("representable");
        assert!(delta.is_empty());
    }
}
