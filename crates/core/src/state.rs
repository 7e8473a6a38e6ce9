//! Incremental instance-match state shared by the exact and signature
//! algorithms.
//!
//! A [`MatchState`] holds the current tuple mapping together with the
//! canonical value-mapping partition (union-find over the joint universe).
//! Pairs can be pushed tentatively and popped in LIFO order, which is
//! exactly what the exact algorithm's backtracking and the signature
//! algorithm's `IsCompatible` check need.
//!
//! The tuple mapping fixes the partition: [`MatchState::replay`] rebuilds
//! it from a pair list, and [`MatchState::value_mapping`] renders `h_l` or
//! `h_r` from it for the callers that ask.

use crate::mapping::{InstanceMatch, Mapped, Pair, ValueMapping};
use crate::score::{score_state, ScoreConfig};
use crate::unionfind::{Checkpoint, ConstConflict, RollbackUf};
use crate::universe::{Side, Universe};
use ic_model::{Catalog, Instance, RelId, Tuple, TupleId, Value};

/// Why a tuple pair could not be added to the match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRejected {
    /// The pair's cells cannot be aligned under any value mapping consistent
    /// with the current match (a unification would equate two constants).
    Incompatible(ConstConflict),
}

/// A pushed pair together with the rollback information to pop it.
#[derive(Debug, Clone, Copy)]
struct PushedPair {
    pair: Pair,
    cp: Checkpoint,
}

/// Incremental match state: tuple mapping + canonical value mappings.
#[derive(Debug)]
pub struct MatchState<'a> {
    left: &'a Instance,
    right: &'a Instance,
    universe: Universe,
    uf: RollbackUf,
    pairs: Vec<PushedPair>,
    left_deg: Vec<u32>,
    right_deg: Vec<u32>,
}

impl<'a> MatchState<'a> {
    /// Creates the empty match over `left` and `right`.
    ///
    /// # Panics
    /// Panics if the instances were built for different numbers of relations.
    pub fn new(left: &'a Instance, right: &'a Instance) -> Self {
        assert_eq!(
            left.num_relations(),
            right.num_relations(),
            "instances must share a schema"
        );
        let universe = Universe::build(left, right);
        let uf = RollbackUf::new(&universe);
        Self {
            left,
            right,
            uf,
            universe,
            pairs: Vec::new(),
            left_deg: vec![0; left.id_bound()],
            right_deg: vec![0; right.id_bound()],
        }
    }

    /// Pushes `pairs` in order onto the empty match, skipping any pair that
    /// is infeasible after the ones kept (only the complete regime,
    /// `partial = false`, rejects a pair).
    ///
    /// Node numbering depends on the instances alone, and a rejected push
    /// or a [`check_pair`](Self::check_pair) leaves the partition exactly
    /// as it was. So replaying the pairs a run kept, in its push order,
    /// rebuilds the run's partition: the same classes with the same roots,
    /// and so the same canonical-null ids.
    pub fn replay(
        left: &'a Instance,
        right: &'a Instance,
        pairs: impl IntoIterator<Item = Pair>,
        partial: bool,
    ) -> Self {
        let mut state = Self::new(left, right);
        for p in pairs {
            let _ = state.try_push_pair(p.rel, p.left, p.right, partial);
        }
        state
    }

    /// The match this state holds: its pairs in push order, scored.
    pub fn to_match(&self, cfg: &ScoreConfig, catalog: &Catalog) -> InstanceMatch {
        InstanceMatch {
            pairs: self.pairs().collect(),
            details: score_state(self, cfg, catalog),
        }
    }

    /// The left instance.
    pub fn left(&self) -> &'a Instance {
        self.left
    }

    /// The right instance.
    pub fn right(&self) -> &'a Instance {
        self.right
    }

    /// The joint value universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Read access to the current unification partition.
    pub fn uf(&self) -> &RollbackUf {
        &self.uf
    }

    /// Currently matched pairs, in push order.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = Pair> + '_ {
        self.pairs.iter().map(|p| p.pair)
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair is matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// How many partners the left tuple currently has (`|m(t)|`).
    #[inline]
    pub fn left_degree(&self, t: TupleId) -> u32 {
        self.left_deg[t.0 as usize]
    }

    /// How many partners the right tuple currently has.
    #[inline]
    pub fn right_degree(&self, t: TupleId) -> u32 {
        self.right_deg[t.0 as usize]
    }

    fn unify_tuples(
        uf: &mut RollbackUf,
        universe: &Universe,
        lt: &Tuple,
        rt: &Tuple,
        partial: bool,
    ) -> Result<(), ConstConflict> {
        for (&a, &b) in lt.values().iter().zip(rt.values()) {
            let na = universe.node(Side::Left, a);
            let nb = universe.node(Side::Right, b);
            match uf.union(na, nb) {
                Ok(_) => {}
                Err(c) => {
                    if partial {
                        // Partial matches (Sec. 6.3) leave conflicting cells
                        // misaligned; they will score 0 (or a string
                        // similarity) instead of failing the pair.
                        continue;
                    }
                    return Err(c);
                }
            }
        }
        Ok(())
    }

    /// Attempts to add pair `(lt, rt)` of relation `rel` to the match.
    ///
    /// With `partial = false` this is the *complete match* regime: all cells
    /// must align, otherwise the state is left unchanged and an error is
    /// returned. With `partial = true` conflicting cells are skipped.
    pub fn try_push_pair(
        &mut self,
        rel: RelId,
        lt: TupleId,
        rt: TupleId,
        partial: bool,
    ) -> Result<(), PairRejected> {
        let cp = self.uf.checkpoint();
        let ltup = self.left.tuple(lt).expect("left tuple exists");
        let rtup = self.right.tuple(rt).expect("right tuple exists");
        match Self::unify_tuples(&mut self.uf, &self.universe, ltup, rtup, partial) {
            Ok(()) => {
                self.pairs.push(PushedPair {
                    pair: Pair {
                        rel,
                        left: lt,
                        right: rt,
                    },
                    cp,
                });
                self.left_deg[lt.0 as usize] += 1;
                self.right_deg[rt.0 as usize] += 1;
                Ok(())
            }
            Err(c) => {
                self.uf.rollback_to(cp);
                Err(PairRejected::Incompatible(c))
            }
        }
    }

    /// Pops the most recently pushed pair, undoing its unifications.
    ///
    /// # Panics
    /// Panics if no pair is pushed.
    pub fn pop_pair(&mut self) -> Pair {
        let pushed = self.pairs.pop().expect("no pair to pop");
        self.uf.rollback_to(pushed.cp);
        self.left_deg[pushed.pair.left.0 as usize] -= 1;
        self.right_deg[pushed.pair.right.0 as usize] -= 1;
        pushed.pair
    }

    /// Non-mutating test whether the pair could be added in the complete
    /// regime — the paper's `IsCompatible(t, t', M)`.
    pub fn check_pair(&mut self, lt: TupleId, rt: TupleId) -> bool {
        let cp = self.uf.checkpoint();
        let ltup = self.left.tuple(lt).expect("left tuple exists");
        let rtup = self.right.tuple(rt).expect("right tuple exists");
        let ok = Self::unify_tuples(&mut self.uf, &self.universe, ltup, rtup, false).is_ok();
        self.uf.rollback_to(cp);
        ok
    }

    /// Whether the two cell values are aligned (equal images) under the
    /// current partition.
    #[inline]
    pub fn aligned(&self, left_val: Value, right_val: Value) -> bool {
        let a = self.universe.node(Side::Left, left_val);
        let b = self.universe.node(Side::Right, right_val);
        self.uf.same(a, b)
    }

    /// Realizes the canonical value mapping of one side: each value maps to
    /// its class constant if the class has one, otherwise to a canonical
    /// fresh null identified by the class root.
    pub fn value_mapping(&self, side: Side) -> ValueMapping {
        let mut out = ValueMapping::default();
        let inst = match side {
            Side::Left => self.left,
            Side::Right => self.right,
        };
        for (_, t) in inst.iter_all() {
            for &v in t.values() {
                if out.contains_key(&v) {
                    continue;
                }
                let node = self.universe.node(side, v);
                let root = self.uf.find(node);
                let image = match self.uf.class_const(root) {
                    Some(sym) => Mapped::Const(sym),
                    None => Mapped::CanonNull(root),
                };
                out.insert(v, image);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{Catalog, Schema};

    /// Fig. 6-like setup: arity-2 relation.
    fn setup(
        left_rows: &[(&str, &str)],
        right_rows: &[(&str, &str)],
    ) -> (Catalog, Instance, Instance) {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = cat.schema().rel("R").unwrap();
        let mk = |cat: &mut Catalog, s: &str| -> Value {
            if let Some(rest) = s.strip_prefix('?') {
                // tests pass "?x" for nulls; equal labels are NOT shared here
                let _ = rest;
                cat.fresh_null()
            } else {
                cat.konst(s)
            }
        };
        let mut left = Instance::new("I", &cat);
        for &(a, b) in left_rows {
            let va = mk(&mut cat, a);
            let vb = mk(&mut cat, b);
            left.insert(rel, vec![va, vb]);
        }
        let mut right = Instance::new("J", &cat);
        for &(a, b) in right_rows {
            let va = mk(&mut cat, a);
            let vb = mk(&mut cat, b);
            right.insert(rel, vec![va, vb]);
        }
        (cat, left, right)
    }

    #[test]
    fn push_compatible_pair() {
        let (_cat, l, r) = setup(&[("a", "?")], &[("a", "b")]);
        let mut st = MatchState::new(&l, &r);
        let lt = l.tuples(RelId(0))[0].id();
        let rt = r.tuples(RelId(0))[0].id();
        assert!(st.try_push_pair(RelId(0), lt, rt, false).is_ok());
        assert_eq!(st.len(), 1);
        assert_eq!(st.left_degree(lt), 1);
        assert_eq!(st.right_degree(rt), 1);
    }

    #[test]
    fn reject_conflicting_constants() {
        let (_cat, l, r) = setup(&[("a", "x")], &[("a", "y")]);
        let mut st = MatchState::new(&l, &r);
        let lt = l.tuples(RelId(0))[0].id();
        let rt = r.tuples(RelId(0))[0].id();
        assert!(st.try_push_pair(RelId(0), lt, rt, false).is_err());
        assert!(st.is_empty());
        assert_eq!(st.left_degree(lt), 0);
    }

    #[test]
    fn partial_mode_accepts_conflicts() {
        let (_cat, l, r) = setup(&[("a", "x")], &[("a", "y")]);
        let mut st = MatchState::new(&l, &r);
        let lt = l.tuples(RelId(0))[0].id();
        let rt = r.tuples(RelId(0))[0].id();
        assert!(st.try_push_pair(RelId(0), lt, rt, true).is_ok());
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn cross_pair_null_consistency() {
        // Left null in two tuples must map consistently:
        // I = {(a, N), (N, b)} ... construct shared null manually.
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = cat.schema().rel("R").unwrap();
        let a = cat.konst("a");
        let b = cat.konst("b");
        let c = cat.konst("c");
        let n = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        let t0 = l.insert(rel, vec![a, n]);
        let t1 = l.insert(rel, vec![n, b]);
        let mut r = Instance::new("J", &cat);
        let u0 = r.insert(rel, vec![a, b]); // forces N -> b
        let u1 = r.insert(rel, vec![c, b]); // would force N -> c: conflict
        let mut st = MatchState::new(&l, &r);
        assert!(st.try_push_pair(rel, t0, u0, false).is_ok());
        assert!(st.try_push_pair(rel, t1, u1, false).is_err());
        assert_eq!(st.len(), 1);
        // After popping the first pair, the conflicting one becomes pushable.
        st.pop_pair();
        assert!(st.try_push_pair(rel, t1, u1, false).is_ok());
    }

    #[test]
    fn check_pair_does_not_mutate() {
        let (_cat, l, r) = setup(&[("a", "?")], &[("a", "b")]);
        let mut st = MatchState::new(&l, &r);
        let lt = l.tuples(RelId(0))[0].id();
        let rt = r.tuples(RelId(0))[0].id();
        assert!(st.check_pair(lt, rt));
        assert!(st.is_empty());
        assert_eq!(st.uf().unions(), 0);
    }

    #[test]
    fn pop_restores_alignment_state() {
        let (_cat, l, r) = setup(&[("a", "?")], &[("a", "b")]);
        let mut st = MatchState::new(&l, &r);
        let lt = l.tuples(RelId(0))[0].id();
        let rt = r.tuples(RelId(0))[0].id();
        let lv = l.tuples(RelId(0))[0].value(ic_model::AttrId(1));
        let rv = r.tuples(RelId(0))[0].value(ic_model::AttrId(1));
        st.try_push_pair(RelId(0), lt, rt, false).unwrap();
        assert!(st.aligned(lv, rv));
        st.pop_pair();
        assert!(!st.aligned(lv, rv));
    }

    #[test]
    fn value_mapping_realization() {
        let (mut cat, l, r) = setup(&[("a", "?")], &[("a", "b")]);
        let mut st = MatchState::new(&l, &r);
        let lt = l.tuples(RelId(0))[0].id();
        let rt = r.tuples(RelId(0))[0].id();
        st.try_push_pair(RelId(0), lt, rt, false).unwrap();
        let lmap = st.value_mapping(Side::Left);
        let null_val = l.tuples(RelId(0))[0].value(ic_model::AttrId(1));
        let b = cat.konst("b");
        // The left null was forced to constant b.
        assert_eq!(
            lmap.get(&null_val),
            Some(&Mapped::Const(b.as_const().unwrap()))
        );
        // Constant a maps to itself.
        let a = cat.konst("a");
        assert_eq!(lmap.get(&a), Some(&Mapped::Const(a.as_const().unwrap())));
    }

    #[test]
    fn value_mapping_fresh_null_classes() {
        let (_cat, l, r) = setup(&[("?", "?")], &[("?", "?")]);
        let mut st = MatchState::new(&l, &r);
        let lt = l.tuples(RelId(0))[0].id();
        let rt = r.tuples(RelId(0))[0].id();
        st.try_push_pair(RelId(0), lt, rt, false).unwrap();
        let lmap = st.value_mapping(Side::Left);
        let rmap = st.value_mapping(Side::Right);
        let lv0 = l.tuples(RelId(0))[0].value(ic_model::AttrId(0));
        let lv1 = l.tuples(RelId(0))[0].value(ic_model::AttrId(1));
        let rv0 = r.tuples(RelId(0))[0].value(ic_model::AttrId(0));
        // Aligned nulls share a canonical null; distinct classes differ.
        assert_eq!(lmap.get(&lv0), rmap.get(&rv0));
        assert_ne!(lmap.get(&lv0), lmap.get(&lv1));
        assert!(matches!(lmap.get(&lv0), Some(Mapped::CanonNull(_))));
    }
}
