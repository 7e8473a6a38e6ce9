//! Instances with labeled nulls: tuples, relations, and the catalog that
//! owns the shared value domains.
//!
//! An instance `I = (I_1, …, I_k)` of a schema assigns each relation symbol a
//! finite set of tuples over `Consts ∪ Vars` (paper Sec. 2). Tuples carry
//! unique identifiers that are *not* semantic keys — they only provide a way
//! to reference tuples, e.g. in tuple mappings.

use crate::hash::FxHashSet;
use crate::schema::{AttrId, RelId, Schema};
use crate::value::{Interner, NullGen, NullId, Sym, Value};
use std::fmt;

/// Identifier of a tuple within one instance.
///
/// Identifiers are dense (allocation order). The paper's assumption
/// `ids(I) ∩ ids(I') = ∅` is met implicitly: every API that relates tuples of
/// two instances keeps track of the side a tuple id belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// A tuple: an identifier plus its cell values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    id: TupleId,
    values: Box<[Value]>,
}

impl Tuple {
    /// The tuple identifier.
    #[inline]
    pub fn id(&self) -> TupleId {
        self.id
    }

    /// All cell values in attribute order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The value of attribute `a`.
    #[inline]
    pub fn value(&self, a: AttrId) -> Value {
        self.values[a.0 as usize]
    }

    /// The arity of the tuple.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

/// Shared value domains for a set of instances: the schema, the constant
/// interner and the labeled-null generator.
///
/// All instances that will ever be compared must be built against the same
/// catalog; this makes constant symbols comparable across instances and
/// keeps null identifiers disjoint.
///
/// Cloning is cheap: the interner's table is shared between clones (see
/// [`Interner`]), so a clone copies pointers, the small schema and the
/// null watermark until the first constant one of them has not seen yet.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    schema: Schema,
    interner: Interner,
    nulls: NullGen,
}

impl Catalog {
    /// Creates a catalog for `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            interner: Interner::new(),
            nulls: NullGen::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Interns a constant string and returns it as a [`Value`].
    pub fn konst(&mut self, s: &str) -> Value {
        Value::Const(self.interner.intern(s))
    }

    /// Interns a constant string and returns the raw symbol.
    pub fn sym(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// Allocates a fresh labeled null as a [`Value`].
    pub fn fresh_null(&mut self) -> Value {
        Value::Null(self.nulls.fresh())
    }

    /// Allocates a fresh labeled null id.
    pub fn fresh_null_id(&mut self) -> NullId {
        self.nulls.fresh()
    }

    /// Resolves a constant symbol to its string.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Renders any value as a display string (`_N<i>` for nulls).
    pub fn render(&self, v: Value) -> String {
        match v {
            Value::Const(s) => self.interner.resolve(s).to_string(),
            Value::Null(n) => n.to_string(),
        }
    }

    /// Read access to the interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of labeled nulls allocated so far (the null watermark).
    pub fn nulls_allocated(&self) -> u32 {
        self.nulls.allocated()
    }

    /// Advances the null watermark so at least `watermark` nulls count as
    /// allocated (never moves backwards). Restoring a persisted catalog
    /// must replay this so reloaded null ids stay burned and future
    /// [`Catalog::fresh_null`] calls remain disjoint from them.
    pub fn advance_nulls(&mut self, watermark: u32) {
        self.nulls.advance_to(watermark);
    }
}

/// An instance of a schema: one bag of tuples per relation symbol.
///
/// Duplicate tuples (equal values, distinct ids) are allowed — the paper's
/// `{(N5), (N5)}` example in Sec. 3 relies on this.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    name: String,
    /// Tuples per relation, indexed by `RelId`.
    relations: Vec<Vec<Tuple>>,
    /// Location of each tuple id: `(relation, index within relation)`.
    /// `None` for ids whose tuples were removed.
    locs: Vec<Option<(RelId, u32)>>,
}

impl Instance {
    /// Creates an empty named instance for a schema with `num_relations`
    /// relation symbols (taken from the catalog's schema).
    pub fn new(name: impl Into<String>, catalog: &Catalog) -> Self {
        Self {
            name: name.into(),
            relations: vec![Vec::new(); catalog.schema().len()],
            locs: Vec::new(),
        }
    }

    /// The instance name (used in reports and displays).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the instance.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Inserts a tuple into relation `rel`, returning its fresh id.
    ///
    /// # Panics
    /// Panics if the number of values differs from the relation's arity
    /// recorded at construction time (i.e. the relation's current length of
    /// sibling tuples), or if `rel` is out of range.
    pub fn insert(&mut self, rel: RelId, values: Vec<Value>) -> TupleId {
        let id = TupleId(self.locs.len() as u32);
        let tuples = &mut self.relations[rel.0 as usize];
        if let Some(first) = tuples.first() {
            assert_eq!(
                first.arity(),
                values.len(),
                "arity mismatch inserting into relation {rel:?}"
            );
        }
        self.locs.push(Some((rel, tuples.len() as u32)));
        tuples.push(Tuple {
            id,
            values: values.into_boxed_slice(),
        });
        id
    }

    /// The tuples of relation `rel`.
    #[inline]
    pub fn tuples(&self, rel: RelId) -> &[Tuple] {
        &self.relations[rel.0 as usize]
    }

    /// Looks up a tuple by id. Returns `None` if it was removed.
    pub fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        let (rel, idx) = self.locs.get(id.0 as usize).copied().flatten()?;
        Some(&self.relations[rel.0 as usize][idx as usize])
    }

    /// The storage location `(relation, position)` of a tuple: `position`
    /// is the tuple's current index within its relation's storage order.
    /// Returns `None` if the tuple was removed (positions shift left on
    /// removal, so a location is only valid until the next mutation).
    pub fn loc(&self, id: TupleId) -> Option<(RelId, u32)> {
        self.locs.get(id.0 as usize).copied().flatten()
    }

    /// The relation a tuple belongs to. Returns `None` if removed.
    pub fn rel_of(&self, id: TupleId) -> Option<RelId> {
        self.locs
            .get(id.0 as usize)
            .copied()
            .flatten()
            .map(|(r, _)| r)
    }

    /// Iterates over `(relation, tuple)` pairs of the whole instance.
    pub fn iter_all(&self) -> impl Iterator<Item = (RelId, &Tuple)> {
        self.relations
            .iter()
            .enumerate()
            .flat_map(|(r, ts)| ts.iter().map(move |t| (RelId(r as u16), t)))
    }

    /// Exclusive upper bound on tuple ids ever allocated by this instance
    /// (removed tuples keep their ids burned). Useful for dense per-tuple
    /// arrays indexed by `TupleId`.
    pub fn id_bound(&self) -> usize {
        self.locs.len()
    }

    /// Total number of tuples across all relations.
    pub fn num_tuples(&self) -> usize {
        self.relations.iter().map(Vec::len).sum()
    }

    /// Number of relation symbols this instance was created for.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// `size(I) = Σ_t arity(t)` — the normalization constant of Def. 5.1.
    pub fn size(&self) -> usize {
        self.relations
            .iter()
            .flat_map(|ts| ts.iter())
            .map(Tuple::arity)
            .sum()
    }

    /// The set of constants appearing in the instance, `Consts(I)`.
    pub fn consts(&self) -> FxHashSet<Sym> {
        self.iter_all()
            .flat_map(|(_, t)| t.values().iter().filter_map(|v| v.as_const()))
            .collect()
    }

    /// The set of labeled nulls appearing in the instance, `Vars(I)`.
    pub fn vars(&self) -> FxHashSet<NullId> {
        self.iter_all()
            .flat_map(|(_, t)| t.values().iter().filter_map(|v| v.as_null()))
            .collect()
    }

    /// Whether the instance is ground (contains no nulls).
    pub fn is_ground(&self) -> bool {
        self.iter_all()
            .all(|(_, t)| t.values().iter().all(|v| v.is_const()))
    }

    /// Number of cells holding a constant.
    pub fn num_const_cells(&self) -> usize {
        self.iter_all()
            .map(|(_, t)| t.values().iter().filter(|v| v.is_const()).count())
            .sum()
    }

    /// Number of cells holding a null.
    pub fn num_null_cells(&self) -> usize {
        self.iter_all()
            .map(|(_, t)| t.values().iter().filter(|v| v.is_null()).count())
            .sum()
    }

    /// Replaces the value of one cell. Returns the previous value.
    ///
    /// # Panics
    /// Panics if the tuple does not exist or `attr` is out of range.
    pub fn set_value(&mut self, id: TupleId, attr: AttrId, v: Value) -> Value {
        let (rel, idx) = self.locs[id.0 as usize].expect("tuple was removed");
        let t = &mut self.relations[rel.0 as usize][idx as usize];
        std::mem::replace(&mut t.values[attr.0 as usize], v)
    }

    /// Removes a tuple by id. Order of remaining tuples within the relation
    /// is preserved. Returns `true` if the tuple existed.
    pub fn remove(&mut self, id: TupleId) -> bool {
        let Some((rel, idx)) = self.locs.get(id.0 as usize).copied().flatten() else {
            return false;
        };
        self.locs[id.0 as usize] = None;
        let tuples = &mut self.relations[rel.0 as usize];
        tuples.remove(idx as usize);
        // Re-index the tuples that shifted left.
        for (i, t) in tuples.iter().enumerate().skip(idx as usize) {
            self.locs[t.id.0 as usize] = Some((rel, i as u32));
        }
        true
    }

    /// Reorders the tuples of `rel` according to `order`, where `order[i]`
    /// is the old index of the tuple that moves to position `i`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..tuples(rel).len()`.
    pub fn permute(&mut self, rel: RelId, order: &[usize]) {
        let tuples = &mut self.relations[rel.0 as usize];
        assert_eq!(order.len(), tuples.len(), "permutation length mismatch");
        let mut seen = vec![false; order.len()];
        for &o in order {
            assert!(!seen[o], "not a permutation");
            seen[o] = true;
        }
        let old = std::mem::take(tuples);
        let mut old: Vec<Option<Tuple>> = old.into_iter().map(Some).collect();
        for (new_idx, &old_idx) in order.iter().enumerate() {
            let t = old[old_idx].take().expect("index reused");
            self.locs[t.id.0 as usize] = Some((rel, new_idx as u32));
            tuples.push(t);
        }
    }

    /// Removes exact duplicate tuples (same relation, same values), keeping
    /// the first occurrence of each. Returns the number removed. Useful for
    /// converting bag to set semantics (e.g. before core computation).
    pub fn dedup_tuples(&mut self) -> usize {
        let mut removed = 0usize;
        for rel_idx in 0..self.relations.len() {
            let rel = RelId(rel_idx as u16);
            let mut seen: FxHashSet<Box<[Value]>> = FxHashSet::default();
            let victims: Vec<TupleId> = self.relations[rel_idx]
                .iter()
                .filter(|t| !seen.insert(t.values.clone()))
                .map(|t| t.id)
                .collect();
            for id in victims {
                let _ = rel;
                self.remove(id);
                removed += 1;
            }
        }
        removed
    }

    /// Applies a value substitution to every cell (used e.g. to ground an
    /// instance or rename nulls). The substitution must be total on values
    /// it wants to change; unchanged values are passed through.
    pub fn map_values(&mut self, mut f: impl FnMut(Value) -> Value) {
        for ts in &mut self.relations {
            for t in ts {
                for v in t.values.iter_mut() {
                    *v = f(*v);
                }
            }
        }
    }

    /// Rebuilds an instance from persisted state, preserving tuple ids,
    /// per-relation storage order and burned (removed) ids exactly.
    ///
    /// `tuples` must yield each relation's tuples in storage order; ids
    /// must be unique and `< id_bound`. Ids in `0..id_bound` that never
    /// appear stay burned, exactly as [`Instance::remove`] leaves them, so
    /// a restored instance is indistinguishable from the one serialized —
    /// including every id-ordered tie-break downstream algorithms take.
    ///
    /// Unlike [`Instance::insert`] this validates instead of panicking:
    /// persisted bytes are external input.
    pub fn restore(
        name: impl Into<String>,
        num_relations: usize,
        id_bound: usize,
        tuples: impl IntoIterator<Item = (RelId, TupleId, Vec<Value>)>,
    ) -> Result<Self, RestoreError> {
        let mut inst = Self {
            name: name.into(),
            relations: vec![Vec::new(); num_relations],
            locs: vec![None; id_bound],
        };
        for (rel, id, values) in tuples {
            let Some(tuples) = inst.relations.get_mut(rel.0 as usize) else {
                return Err(RestoreError::RelationOutOfRange { rel, num_relations });
            };
            if let Some(first) = tuples.first() {
                if first.arity() != values.len() {
                    return Err(RestoreError::ArityMismatch {
                        rel,
                        expected: first.arity(),
                        found: values.len(),
                    });
                }
            }
            match inst.locs.get_mut(id.0 as usize) {
                None => return Err(RestoreError::IdOutOfBound { id, id_bound }),
                Some(Some(_)) => return Err(RestoreError::DuplicateId { id }),
                Some(slot) => *slot = Some((rel, tuples.len() as u32)),
            }
            tuples.push(Tuple {
                id,
                values: values.into_boxed_slice(),
            });
        }
        Ok(inst)
    }

    /// Statistics summary used by the experiment tables.
    pub fn stats(&self) -> InstanceStats {
        let mut distinct: FxHashSet<Value> = FxHashSet::default();
        for (_, t) in self.iter_all() {
            distinct.extend(t.values().iter().copied());
        }
        InstanceStats {
            tuples: self.num_tuples(),
            const_cells: self.num_const_cells(),
            null_cells: self.num_null_cells(),
            distinct_consts: self.consts().len(),
            distinct_nulls: self.vars().len(),
            distinct_values: distinct.len(),
        }
    }
}

/// Why [`Instance::restore`] rejected persisted tuple data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// A tuple referenced a relation the schema does not have.
    RelationOutOfRange {
        /// The offending relation id.
        rel: RelId,
        /// Number of relations the instance was restored for.
        num_relations: usize,
    },
    /// A tuple id was at or above the declared id bound.
    IdOutOfBound {
        /// The offending tuple id.
        id: TupleId,
        /// The declared exclusive id bound.
        id_bound: usize,
    },
    /// The same tuple id appeared twice.
    DuplicateId {
        /// The repeated tuple id.
        id: TupleId,
    },
    /// A tuple's arity disagreed with its relation siblings.
    ArityMismatch {
        /// The relation the tuple belongs to.
        rel: RelId,
        /// Arity of the relation's earlier tuples.
        expected: usize,
        /// Arity of the offending tuple.
        found: usize,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::RelationOutOfRange { rel, num_relations } => {
                write!(f, "relation {} out of range (have {num_relations})", rel.0)
            }
            RestoreError::IdOutOfBound { id, id_bound } => {
                write!(f, "tuple id {} outside id bound {id_bound}", id.0)
            }
            RestoreError::DuplicateId { id } => write!(f, "duplicate tuple id {}", id.0),
            RestoreError::ArityMismatch {
                rel,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch in relation {}: expected {expected}, found {found}",
                rel.0
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Size statistics of an instance as reported in the paper's tables
/// (#T, #C, #V columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceStats {
    /// Number of tuples (#T).
    pub tuples: usize,
    /// Number of cells holding constants.
    pub const_cells: usize,
    /// Number of cells holding nulls (#V).
    pub null_cells: usize,
    /// Number of distinct constants (#C).
    pub distinct_consts: usize,
    /// Number of distinct nulls.
    pub distinct_nulls: usize,
    /// Number of distinct values overall.
    pub distinct_values: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Catalog, Instance) {
        let schema = Schema::single("Conference", &["Name", "Year", "Org"]);
        let cat = Catalog::new(schema);
        let inst = Instance::new("I", &cat);
        (cat, inst)
    }

    #[test]
    fn render_covers_consts_and_nulls() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let c = cat.konst("hello");
        let n = cat.fresh_null();
        assert_eq!(cat.render(c), "hello");
        assert!(cat.render(n).starts_with("_N"));
    }

    #[test]
    fn insert_and_lookup() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let vldb = cat.konst("VLDB");
        let y = cat.konst("1975");
        let n = cat.fresh_null();
        let id = inst.insert(r, vec![vldb, y, n]);
        assert_eq!(inst.num_tuples(), 1);
        let t = inst.tuple(id).unwrap();
        assert_eq!(t.value(AttrId(0)), vldb);
        assert_eq!(t.value(AttrId(2)), n);
        assert_eq!(inst.rel_of(id), Some(r));
        assert_eq!(inst.size(), 3);
    }

    #[test]
    fn consts_and_vars_sets() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("VLDB");
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        inst.insert(r, vec![a, n1, n2]);
        inst.insert(r, vec![a, a, n1]);
        assert_eq!(inst.consts().len(), 1);
        assert_eq!(inst.vars().len(), 2);
        assert_eq!(inst.num_const_cells(), 3);
        assert_eq!(inst.num_null_cells(), 3);
        assert!(!inst.is_ground());
    }

    #[test]
    fn ground_instance_detection() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("x");
        inst.insert(r, vec![a, a, a]);
        assert!(inst.is_ground());
    }

    #[test]
    fn remove_reindexes() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        let t0 = inst.insert(r, vec![a, a, a]);
        let t1 = inst.insert(r, vec![a, a, a]);
        let t2 = inst.insert(r, vec![a, a, a]);
        assert!(inst.remove(t1));
        assert!(!inst.remove(t1));
        assert_eq!(inst.num_tuples(), 2);
        assert_eq!(inst.tuple(t1), None);
        // t0 and t2 still resolvable after the shift.
        assert_eq!(inst.tuple(t0).unwrap().id(), t0);
        assert_eq!(inst.tuple(t2).unwrap().id(), t2);
    }

    #[test]
    fn permute_preserves_lookup() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let vals: Vec<Value> = (0..3).map(|i| cat.konst(&format!("c{i}"))).collect();
        let ids: Vec<TupleId> = vals
            .iter()
            .map(|&v| inst.insert(r, vec![v, v, v]))
            .collect();
        inst.permute(r, &[2, 0, 1]);
        for (&id, &v) in ids.iter().zip(&vals) {
            assert_eq!(inst.tuple(id).unwrap().value(AttrId(0)), v);
        }
        assert_eq!(inst.tuples(r)[0].id(), ids[2]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_non_permutation() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        inst.insert(r, vec![a, a, a]);
        inst.insert(r, vec![a, a, a]);
        inst.permute(r, &[0, 0]);
    }

    #[test]
    fn set_value_replaces_cell() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        let b = cat.konst("b");
        let id = inst.insert(r, vec![a, a, a]);
        let old = inst.set_value(id, AttrId(1), b);
        assert_eq!(old, a);
        assert_eq!(inst.tuple(id).unwrap().value(AttrId(1)), b);
    }

    #[test]
    fn map_values_rewrites_all_cells() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        let b = cat.konst("b");
        inst.insert(r, vec![a, a, a]);
        inst.map_values(|v| if v == a { b } else { v });
        assert!(inst
            .tuples(r)
            .iter()
            .all(|t| t.values().iter().all(|&v| v == b)));
    }

    #[test]
    fn stats_counts() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        let n = cat.fresh_null();
        inst.insert(r, vec![a, n, n]);
        let s = inst.stats();
        assert_eq!(s.tuples, 1);
        assert_eq!(s.const_cells, 1);
        assert_eq!(s.null_cells, 2);
        assert_eq!(s.distinct_consts, 1);
        assert_eq!(s.distinct_nulls, 1);
        assert_eq!(s.distinct_values, 2);
    }

    #[test]
    fn dedup_removes_exact_duplicates() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        let b = cat.konst("b");
        let n = cat.fresh_null();
        let keep1 = inst.insert(r, vec![a, b, n]);
        inst.insert(r, vec![a, b, n]); // exact dup (same null!)
        let keep2 = inst.insert(r, vec![a, b, a]);
        let m = cat.fresh_null();
        let keep3 = inst.insert(r, vec![a, b, m]); // different null: kept
        assert_eq!(inst.dedup_tuples(), 1);
        assert_eq!(inst.num_tuples(), 3);
        for id in [keep1, keep2, keep3] {
            assert!(inst.tuple(id).is_some());
        }
        // Idempotent.
        assert_eq!(inst.dedup_tuples(), 0);
    }

    #[test]
    fn duplicate_tuples_have_distinct_ids() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let n = cat.fresh_null();
        let t1 = inst.insert(r, vec![n, n, n]);
        let t2 = inst.insert(r, vec![n, n, n]);
        assert_ne!(t1, t2);
        assert_eq!(inst.num_tuples(), 2);
    }

    #[test]
    fn restore_reproduces_ids_order_and_burned_slots() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        let b = cat.konst("b");
        let t0 = inst.insert(r, vec![a, a, a]);
        let t1 = inst.insert(r, vec![b, b, b]);
        let t2 = inst.insert(r, vec![a, b, a]);
        inst.remove(t1); // burn an id

        let triples: Vec<_> = inst
            .iter_all()
            .map(|(rel, t)| (rel, t.id(), t.values().to_vec()))
            .collect();
        let back = Instance::restore("I", inst.num_relations(), inst.id_bound(), triples).unwrap();

        assert_eq!(back.id_bound(), inst.id_bound());
        assert_eq!(back.tuple(t1), None, "burned id stays burned");
        for id in [t0, t2] {
            assert_eq!(back.tuple(id), inst.tuple(id));
            assert_eq!(back.loc(id), inst.loc(id));
        }
        assert_eq!(
            back.tuples(r).iter().map(Tuple::id).collect::<Vec<_>>(),
            inst.tuples(r).iter().map(Tuple::id).collect::<Vec<_>>(),
            "storage order preserved"
        );
    }

    #[test]
    fn restore_validates_instead_of_panicking() {
        let a = Value::Const(Sym(0));
        let t = |rel: u16, id: u32, vals: Vec<Value>| (RelId(rel), TupleId(id), vals);
        assert_eq!(
            Instance::restore("x", 1, 2, vec![t(3, 0, vec![a])]).unwrap_err(),
            RestoreError::RelationOutOfRange {
                rel: RelId(3),
                num_relations: 1
            }
        );
        assert_eq!(
            Instance::restore("x", 1, 2, vec![t(0, 5, vec![a])]).unwrap_err(),
            RestoreError::IdOutOfBound {
                id: TupleId(5),
                id_bound: 2
            }
        );
        assert_eq!(
            Instance::restore("x", 1, 2, vec![t(0, 1, vec![a]), t(0, 1, vec![a])]).unwrap_err(),
            RestoreError::DuplicateId { id: TupleId(1) }
        );
        assert_eq!(
            Instance::restore("x", 1, 2, vec![t(0, 0, vec![a]), t(0, 1, vec![a, a])]).unwrap_err(),
            RestoreError::ArityMismatch {
                rel: RelId(0),
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn null_watermark_advances_and_never_regresses() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        cat.fresh_null();
        cat.fresh_null();
        assert_eq!(cat.nulls_allocated(), 2);
        cat.advance_nulls(5);
        assert_eq!(cat.nulls_allocated(), 5);
        cat.advance_nulls(3); // never backwards
        assert_eq!(cat.nulls_allocated(), 5);
        assert_eq!(cat.fresh_null_id(), NullId(5));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let (mut cat, mut inst) = setup();
        let r = cat.schema().rel("Conference").unwrap();
        let a = cat.konst("a");
        inst.insert(r, vec![a, a, a]);
        inst.insert(r, vec![a]);
    }
}
