//! Explaining an instance match as a list of differences.
//!
//! The paper's introduction motivates instance comparison with questions
//! like *"which tuples are updated versions of which other tuple, what was
//! inserted, what was deleted?"*. The optimal instance match answers them:
//! matched pairs are updates (with per-cell detail on how nulls were
//! interpreted), unmatched left tuples are deletions, unmatched right tuples
//! are insertions. This module turns an [`InstanceMatch`] into that report.

use crate::mapping::InstanceMatch;
use ic_model::{AttrId, Catalog, Instance, RelId, TupleId, Value};
use std::fmt::Write as _;

/// How one cell of a matched tuple pair relates across the instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellChange {
    /// Equal constants — unchanged.
    SameConstant,
    /// Both cells are nulls with the same image — the unknown carried over.
    NullRenamed,
    /// The left constant became a null (information was lost).
    ConstantToNull,
    /// The left null became a constant (information was gained).
    NullToConstant,
    /// Conflicting constants (only under partial matches).
    ConstantConflict,
    /// Both nulls but with different images (only under partial matches).
    NullMismatch,
}

/// One matched pair with its cell-level changes.
#[derive(Debug, Clone)]
pub struct PairExplanation {
    /// Relation of the pair.
    pub rel: RelId,
    /// Left tuple.
    pub left: TupleId,
    /// Right tuple.
    pub right: TupleId,
    /// Change classification per attribute.
    pub cells: Vec<CellChange>,
}

impl PairExplanation {
    /// Whether the two tuples are identical up to null renaming.
    pub fn is_unchanged(&self) -> bool {
        self.cells
            .iter()
            .all(|c| matches!(c, CellChange::SameConstant | CellChange::NullRenamed))
    }
}

/// A full difference report between two instances, derived from a match.
#[derive(Debug, Clone, Default)]
pub struct InstanceDiff {
    /// Matched pairs that are identical up to null renaming.
    pub unchanged: Vec<PairExplanation>,
    /// Matched pairs with at least one substantive cell change.
    pub updated: Vec<PairExplanation>,
    /// Left tuples with no partner (deleted going left → right).
    pub deleted: Vec<(RelId, TupleId)>,
    /// Right tuples with no partner (inserted going left → right).
    pub inserted: Vec<(RelId, TupleId)>,
}

impl InstanceDiff {
    /// Total number of reported differences (updates + deletions +
    /// insertions).
    pub fn num_changes(&self) -> usize {
        self.updated.len() + self.deleted.len() + self.inserted.len()
    }
}

/// Classifies one cell pair given whether their images agree.
fn classify(a: Value, b: Value, aligned: bool) -> CellChange {
    match (a, b, aligned) {
        (Value::Const(_), Value::Const(_), true) => CellChange::SameConstant,
        (Value::Const(_), Value::Const(_), false) => CellChange::ConstantConflict,
        (Value::Null(_), Value::Null(_), true) => CellChange::NullRenamed,
        (Value::Null(_), Value::Null(_), false) => CellChange::NullMismatch,
        (Value::Const(_), Value::Null(_), true) => CellChange::ConstantToNull,
        (Value::Null(_), Value::Const(_), true) => CellChange::NullToConstant,
        // A mixed cell whose images disagree (partial matches only).
        (_, _, false) => CellChange::NullMismatch,
    }
}

/// Builds the difference report for `m` between `left` and `right`.
///
/// Cell alignment is read from the match's replayed partition
/// ([`InstanceMatch::replay`]), so the report is consistent with the score
/// (misaligned cells of partial matches show up as conflicts).
pub fn explain(m: &InstanceMatch, left: &Instance, right: &Instance) -> InstanceDiff {
    let state = m.replay(left, right);
    let mut diff = InstanceDiff::default();
    for pair in &m.pairs {
        let lt = left.tuple(pair.left).expect("left tuple exists");
        let rt = right.tuple(pair.right).expect("right tuple exists");
        let cells: Vec<CellChange> = lt
            .values()
            .iter()
            .zip(rt.values())
            .map(|(&a, &b)| classify(a, b, state.aligned(a, b)))
            .collect();
        let exp = PairExplanation {
            rel: pair.rel,
            left: pair.left,
            right: pair.right,
            cells,
        };
        if exp.is_unchanged() {
            diff.unchanged.push(exp);
        } else {
            diff.updated.push(exp);
        }
    }
    for &tid in &m.details.unmatched_left {
        if let Some(rel) = left.rel_of(tid) {
            diff.deleted.push((rel, tid));
        }
    }
    for &tid in &m.details.unmatched_right {
        if let Some(rel) = right.rel_of(tid) {
            diff.inserted.push((rel, tid));
        }
    }
    diff
}

/// Renders a realized value mapping as sorted `value -> image` lines,
/// skipping constants (which map to themselves). Canonical nulls render as
/// `V<class>`.
pub fn render_value_mapping(mapping: &crate::mapping::ValueMapping, catalog: &Catalog) -> String {
    use crate::mapping::Mapped;
    let mut entries: Vec<(Value, Mapped)> = mapping
        .iter()
        .filter(|(v, _)| v.is_null())
        .map(|(&v, &m)| (v, m))
        .collect();
    entries.sort_by_key(|(v, _)| v.as_null().map(|n| n.0));
    let mut out = String::new();
    for (v, m) in entries {
        let img = match m {
            Mapped::Const(sym) => catalog.resolve(sym).to_string(),
            Mapped::CanonNull(k) => format!("V{k}"),
        };
        let _ = writeln!(out, "{} -> {}", catalog.render(v), img);
    }
    out
}

/// Renders the report as human-readable text.
pub fn render_diff(
    diff: &InstanceDiff,
    catalog: &Catalog,
    left: &Instance,
    right: &Instance,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} unchanged, {} updated, {} deleted, {} inserted",
        diff.unchanged.len(),
        diff.updated.len(),
        diff.deleted.len(),
        diff.inserted.len()
    );
    let render_tuple = |inst: &Instance, tid: TupleId| -> String {
        inst.tuple(tid)
            .map(|t| {
                t.values()
                    .iter()
                    .map(|&v| catalog.render(v))
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default()
    };
    for p in &diff.updated {
        let _ = writeln!(
            out,
            "~ t{} -> t{}: ({}) => ({})",
            p.left.0,
            p.right.0,
            render_tuple(left, p.left),
            render_tuple(right, p.right)
        );
        for (i, c) in p.cells.iter().enumerate() {
            if !matches!(c, CellChange::SameConstant | CellChange::NullRenamed) {
                let attr = catalog
                    .schema()
                    .relation(p.rel)
                    .attr_name(AttrId(i as u16))
                    .to_string();
                let _ = writeln!(out, "    {attr}: {c:?}");
            }
        }
    }
    for &(_, tid) in &diff.deleted {
        let _ = writeln!(out, "- t{}: ({})", tid.0, render_tuple(left, tid));
    }
    for &(_, tid) in &diff.inserted {
        let _ = writeln!(out, "+ t{}: ({})", tid.0, render_tuple(right, tid));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{signature_match, SignatureConfig};
    use crate::universe::Side;
    use ic_model::{Catalog, Schema};

    fn setup() -> (Catalog, Instance, Instance) {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, b, c, d) = (
            cat.konst("a"),
            cat.konst("b"),
            cat.konst("c"),
            cat.konst("d"),
        );
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut left = Instance::new("I", &cat);
        left.insert(rel, vec![a, b]); // unchanged
        left.insert(rel, vec![c, n]); // null -> constant d
        left.insert(rel, vec![d, d]); // deleted
        let mut right = Instance::new("J", &cat);
        right.insert(rel, vec![a, b]);
        right.insert(rel, vec![c, d]);
        right.insert(rel, vec![m, a]); // inserted (m unmatched: c conflicts a? no pair)
        (cat, left, right)
    }

    #[test]
    fn classifies_changes() {
        let (cat, left, right) = setup();
        let out = signature_match(&left, &right, &cat, &SignatureConfig::default());
        let diff = explain(&out.best, &left, &right);
        // (a,b) unchanged; (c,N)->(c,d) updated; (d,d) deleted or matched to
        // (m,a)? d vs a conflicts on B, so deleted; (m,a) inserted... unless
        // (d,d) matches (m,a)? B: d vs a conflict -> no.
        assert_eq!(diff.unchanged.len(), 1);
        assert_eq!(diff.updated.len(), 1);
        assert_eq!(diff.deleted.len(), 1);
        assert_eq!(diff.inserted.len(), 1);
        assert_eq!(diff.num_changes(), 3);
        let upd = &diff.updated[0];
        assert_eq!(upd.cells[0], CellChange::SameConstant);
        assert_eq!(upd.cells[1], CellChange::NullToConstant);
    }

    #[test]
    fn renders_report() {
        let (cat, left, right) = setup();
        let out = signature_match(&left, &right, &cat, &SignatureConfig::default());
        let diff = explain(&out.best, &left, &right);
        let text = render_diff(&diff, &cat, &left, &right);
        assert!(text.contains("1 unchanged, 1 updated, 1 deleted, 1 inserted"));
        assert!(text.contains("NullToConstant"));
        assert!(text.contains("- t"));
        assert!(text.contains("+ t"));
    }

    #[test]
    fn value_mapping_renders_null_images() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let c = cat.konst("c");
        let n = cat.fresh_null();
        let m = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n, m]);
        let mut r = Instance::new("J", &cat);
        let k = cat.fresh_null();
        r.insert(rel, vec![c, k]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        let h_l = out.best.replay(&l, &r).value_mapping(Side::Left);
        let text = render_value_mapping(&h_l, &cat);
        assert!(text.contains("-> c"), "{text}");
        assert!(text.contains("-> V"), "{text}");
    }

    #[test]
    fn ground_self_match_reports_every_pair_unchanged() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let mut i = Instance::new("I", &cat);
        for row in [["a", "b"], ["c", "d"], ["a", "b"]] {
            let values = row.iter().map(|s| cat.konst(s)).collect();
            i.insert(rel, values);
        }
        let m = crate::ground::ground_match(&i, &i, &cat);
        assert_eq!(m.score(), 1.0);
        let diff = explain(&m, &i, &i);
        assert_eq!((diff.unchanged.len(), diff.num_changes()), (3, 0));
        for p in &diff.unchanged {
            assert_eq!(p.cells, [CellChange::SameConstant; 2]);
        }
    }

    #[test]
    fn isomorphic_instances_report_no_changes() {
        let mut cat = Catalog::new(Schema::single("R", &["A"]));
        let rel = RelId(0);
        let n1 = cat.fresh_null();
        let n2 = cat.fresh_null();
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![n1]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![n2]);
        let out = signature_match(&l, &r, &cat, &SignatureConfig::default());
        let diff = explain(&out.best, &l, &r);
        assert_eq!(diff.num_changes(), 0);
        assert_eq!(diff.unchanged.len(), 1);
        assert_eq!(diff.unchanged[0].cells[0], CellChange::NullRenamed);
    }

    #[test]
    fn partial_match_reports_conflict() {
        let mut cat = Catalog::new(Schema::single("R", &["A", "B"]));
        let rel = RelId(0);
        let (a, x, y) = (cat.konst("a"), cat.konst("x"), cat.konst("y"));
        let mut l = Instance::new("I", &cat);
        l.insert(rel, vec![a, x]);
        let mut r = Instance::new("J", &cat);
        r.insert(rel, vec![a, y]);
        let cfg = SignatureConfig {
            partial: true,
            ..Default::default()
        };
        let out = signature_match(&l, &r, &cat, &cfg);
        let diff = explain(&out.best, &l, &r);
        assert_eq!(diff.updated.len(), 1);
        assert_eq!(diff.updated[0].cells[1], CellChange::ConstantConflict);
    }
}
