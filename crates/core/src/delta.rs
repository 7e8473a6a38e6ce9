//! Tuple-level deltas between instance versions.
//!
//! A [`Delta`] is an ordered list of [`DeltaOp`]s — inserts, deletes, and
//! single-cell modifications — describing how one instance version evolves
//! into the next. [`Delta::apply`] is its semantics. Signature maps built
//! for the old version are brought forward to the new one by
//! [`crate::InstanceSigMaps::repair`] instead of being rebuilt.
//!
//! Ops are validated against the instance as they are applied; the first
//! invalid op aborts with a [`DeltaError`] and leaves the instance with
//! every *earlier* op applied (callers that need atomicity apply to a
//! clone and discard it on error).

use ic_model::{AttrId, Instance, RelId, TupleId, Value};

/// One tuple-level edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Insert a new tuple into `rel`; it receives the next fresh
    /// [`TupleId`] and the last storage position of the relation.
    Insert {
        /// Target relation.
        rel: RelId,
        /// Cell values (must match the relation's arity).
        values: Vec<Value>,
    },
    /// Delete the tuple `id` (storage order of the rest is preserved).
    Delete {
        /// The tuple to delete.
        id: TupleId,
    },
    /// Overwrite one cell of the tuple `id`.
    Modify {
        /// The tuple to modify.
        id: TupleId,
        /// The attribute (cell position) to overwrite.
        attr: AttrId,
        /// The new cell value.
        value: Value,
    },
}

/// Why a [`DeltaOp`] could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The op referenced a tuple id that does not exist (or was removed).
    UnknownTuple(TupleId),
    /// The op referenced a relation the instance does not have.
    UnknownRelation(RelId),
    /// An insert's value count disagrees with the relation's arity.
    ArityMismatch {
        /// Target relation.
        rel: RelId,
        /// Arity of the relation's existing tuples.
        expected: usize,
        /// Number of values the op supplied.
        found: usize,
    },
    /// A modify's attribute index is out of range for its tuple.
    AttrOutOfRange {
        /// The tuple being modified.
        id: TupleId,
        /// The out-of-range attribute.
        attr: AttrId,
        /// The tuple's arity.
        arity: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::UnknownTuple(id) => write!(f, "unknown tuple id {}", id.0),
            DeltaError::UnknownRelation(rel) => write!(f, "unknown relation {}", rel.0),
            DeltaError::ArityMismatch {
                rel,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch inserting into relation {}: expected {expected}, got {found}",
                rel.0
            ),
            DeltaError::AttrOutOfRange { id, attr, arity } => write!(
                f,
                "attribute {} out of range for tuple {} of arity {arity}",
                attr.0, id.0
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// An ordered sequence of tuple-level edits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// The edits, applied in order.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// Wraps a list of ops.
    pub fn new(ops: Vec<DeltaOp>) -> Self {
        Self { ops }
    }

    /// Whether the delta has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Applies the delta to `instance` in op order, returning the ids
    /// assigned to inserted tuples. The first invalid op aborts; earlier
    /// ops stay applied (see the module docs).
    pub fn apply(&self, instance: &mut Instance) -> Result<Vec<TupleId>, DeltaError> {
        let mut inserted = Vec::new();
        for op in &self.ops {
            match op {
                DeltaOp::Insert { rel, values } => {
                    if rel.0 as usize >= instance.num_relations() {
                        return Err(DeltaError::UnknownRelation(*rel));
                    }
                    if let Some(first) = instance.tuples(*rel).first() {
                        if first.arity() != values.len() {
                            return Err(DeltaError::ArityMismatch {
                                rel: *rel,
                                expected: first.arity(),
                                found: values.len(),
                            });
                        }
                    }
                    inserted.push(instance.insert(*rel, values.clone()));
                }
                DeltaOp::Delete { id } => {
                    if !instance.remove(*id) {
                        return Err(DeltaError::UnknownTuple(*id));
                    }
                }
                DeltaOp::Modify { id, attr, value } => {
                    let arity = instance
                        .tuple(*id)
                        .ok_or(DeltaError::UnknownTuple(*id))?
                        .arity();
                    if attr.0 as usize >= arity {
                        return Err(DeltaError::AttrOutOfRange {
                            id: *id,
                            attr: *attr,
                            arity,
                        });
                    }
                    instance.set_value(*id, *attr, *value);
                }
            }
        }
        Ok(inserted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Catalog, Schema};

    fn setup() -> (Catalog, Instance, RelId) {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = cat.schema().rel("R").unwrap();
        let mut inst = Instance::new("I", &cat);
        let (a, b, c, d) = (
            cat.konst("a"),
            cat.konst("b"),
            cat.konst("c"),
            cat.konst("d"),
        );
        inst.insert(rel, vec![a, b]);
        inst.insert(rel, vec![c, d]);
        (cat, inst, rel)
    }

    #[test]
    fn apply_insert_delete_modify() {
        let (mut cat, mut inst, rel) = setup();
        let (e, f) = (cat.konst("e"), cat.konst("f"));
        let delta = Delta::new(vec![
            DeltaOp::Delete { id: TupleId(0) },
            DeltaOp::Modify {
                id: TupleId(1),
                attr: AttrId(1),
                value: e,
            },
            DeltaOp::Insert {
                rel,
                values: vec![e, f],
            },
        ]);
        let inserted = delta.apply(&mut inst).unwrap();
        assert_eq!(inserted, vec![TupleId(2)]);
        assert_eq!(inst.num_tuples(), 2);
        assert!(inst.tuple(TupleId(0)).is_none());
        assert_eq!(inst.tuple(TupleId(1)).unwrap().value(AttrId(1)), e);
        assert_eq!(inst.tuple(TupleId(2)).unwrap().values(), &[e, f]);
    }

    #[test]
    fn invalid_ops_are_rejected() {
        let (mut cat, mut inst, rel) = setup();
        let e = cat.konst("e");
        let bad_tuple = Delta::new(vec![DeltaOp::Delete { id: TupleId(99) }]);
        assert_eq!(
            bad_tuple.apply(&mut inst),
            Err(DeltaError::UnknownTuple(TupleId(99)))
        );
        let bad_rel = Delta::new(vec![DeltaOp::Insert {
            rel: RelId(7),
            values: vec![e],
        }]);
        assert_eq!(
            bad_rel.apply(&mut inst),
            Err(DeltaError::UnknownRelation(RelId(7)))
        );
        let bad_arity = Delta::new(vec![DeltaOp::Insert {
            rel,
            values: vec![e],
        }]);
        assert!(matches!(
            bad_arity.apply(&mut inst),
            Err(DeltaError::ArityMismatch {
                expected: 2,
                found: 1,
                ..
            })
        ));
        let bad_attr = Delta::new(vec![DeltaOp::Modify {
            id: TupleId(0),
            attr: AttrId(9),
            value: e,
        }]);
        assert!(matches!(
            bad_attr.apply(&mut inst),
            Err(DeltaError::AttrOutOfRange { arity: 2, .. })
        ));
    }

    #[test]
    fn partial_application_on_error() {
        let (_cat, mut inst, _rel) = setup();
        let delta = Delta::new(vec![
            DeltaOp::Delete { id: TupleId(0) },
            DeltaOp::Delete { id: TupleId(42) },
        ]);
        assert!(delta.apply(&mut inst).is_err());
        // The first (valid) op stays applied.
        assert!(inst.tuple(TupleId(0)).is_none());
    }
}
