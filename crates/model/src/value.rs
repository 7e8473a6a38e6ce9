//! Values of incomplete instances: interned constants and labeled nulls.
//!
//! Following the paper (Sec. 2), the value domain is the disjoint union of a
//! countably infinite set of *constants* (`Consts`) and a countably infinite
//! set of *labeled nulls* (`Vars`). Constants are interned strings; labeled
//! nulls are opaque identifiers whose only meaningful property is identity
//! (renaming a null does not change the information content of an instance).

use crate::hash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// An interned constant. Two `Sym`s produced by the same [`Interner`] are
/// equal iff the underlying strings are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// A labeled null. Identifiers are allocated by a [`NullGen`]; the paper's
/// disjointness assumption (`Vars(I) ∩ Vars(I') = ∅`) holds automatically
/// when both instances draw from the same generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NullId(pub u32);

/// A cell value: either a constant or a labeled null.
///
/// `Value` is 8 bytes and `Copy`, so tuples store values inline and the
/// matching algorithms can pass values around freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A constant from `Consts`.
    Const(Sym),
    /// A labeled null from `Vars`.
    Null(NullId),
}

impl Value {
    /// Returns `true` iff this value is a constant.
    #[inline]
    pub fn is_const(self) -> bool {
        matches!(self, Value::Const(_))
    }

    /// Returns `true` iff this value is a labeled null.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Returns the constant symbol, if any.
    #[inline]
    pub fn as_const(self) -> Option<Sym> {
        match self {
            Value::Const(s) => Some(s),
            Value::Null(_) => None,
        }
    }

    /// Returns the null identifier, if any.
    #[inline]
    pub fn as_null(self) -> Option<NullId> {
        match self {
            Value::Null(n) => Some(n),
            Value::Const(_) => None,
        }
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Self {
        Value::Const(s)
    }
}

impl From<NullId> for Value {
    fn from(n: NullId) -> Self {
        Value::Null(n)
    }
}

/// A string interner mapping constant strings to dense [`Sym`] identifiers.
///
/// All instances that are ever compared with each other must share one
/// interner (usually via [`crate::Catalog`]) so that equal constant strings
/// receive equal symbols.
///
/// The strings and the lookup map sit behind one `Arc`, so a clone is a
/// pointer copy: clones share their storage until one of them interns a
/// string it does not hold yet, which copies the table once
/// (copy-on-write). Interning an existing string, [`get`](Self::get) and
/// [`resolve`](Self::resolve) never copy, and a clone never sees strings
/// interned into another clone after the split.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    table: Arc<Table>,
}

/// The shared storage of an [`Interner`].
#[derive(Debug, Default, Clone)]
struct Table {
    map: FxHashMap<Box<str>, Sym>,
    strings: Vec<Box<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol. Idempotent. Copies the shared
    /// table first only when `s` is new and another clone still shares it.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(sym) = self.get(s) {
            return sym;
        }
        let table = Arc::make_mut(&mut self.table);
        let sym = Sym(table.strings.len() as u32);
        let boxed: Box<str> = s.into();
        table.strings.push(boxed.clone());
        table.map.insert(boxed, sym);
        sym
    }

    /// Looks up a previously interned string without interning.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.table.map.get(s).copied()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.table.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.table.strings.len()
    }

    /// Whether no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.table.strings.is_empty()
    }
}

/// Allocator of fresh labeled nulls.
///
/// A single generator shared by all instances under comparison guarantees
/// the paper's disjoint-nulls assumption without explicit renaming.
#[derive(Debug, Default, Clone)]
pub struct NullGen {
    next: u32,
}

impl NullGen {
    /// Creates a generator starting at `N0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh null, distinct from all previously allocated ones.
    pub fn fresh(&mut self) -> NullId {
        let id = NullId(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("labeled-null identifier space exhausted");
        id
    }

    /// Number of nulls allocated so far.
    pub fn allocated(&self) -> u32 {
        self.next
    }

    /// Advances the generator so that at least `watermark` nulls count as
    /// allocated. Never moves backwards; used to restore a generator from a
    /// persisted watermark so reloaded nulls stay burned and future
    /// [`NullGen::fresh`] calls remain disjoint from them.
    pub fn advance_to(&mut self, watermark: u32) {
        self.next = self.next.max(watermark);
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_N{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("VLDB");
        let b = i.intern("VLDB");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn intern_distinguishes_strings() {
        let mut i = Interner::new();
        let a = i.intern("VLDB");
        let b = i.intern("SIGMOD");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "VLDB");
        assert_eq!(i.resolve(b), "SIGMOD");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
    }

    #[test]
    fn new_string_in_a_clone_leaves_the_original_unchanged() {
        let mut original = crate::Catalog::new(crate::Schema::single("R", &["A"]));
        let vldb = original.sym("VLDB");
        let mut clone = original.clone();
        let edbt = clone.sym("EDBT");
        assert_eq!(clone.interner().len(), 2);
        assert_eq!(clone.resolve(edbt), "EDBT");
        assert_eq!(clone.resolve(vldb), "VLDB");
        assert_eq!(original.interner().len(), 1);
        assert_eq!(original.interner().get("EDBT"), None);
        assert_eq!(original.resolve(vldb), "VLDB");
        // The split copied the table once; the original still interns on
        // its own, and the two clones now assign symbols independently.
        assert_eq!(original.sym("SIGMOD"), edbt);
        assert_eq!(clone.interner().get("SIGMOD"), None);
    }

    #[test]
    fn interning_an_existing_string_copies_nothing() {
        let mut original = crate::Catalog::new(crate::Schema::single("R", &["A"]));
        let vldb = original.sym("VLDB");
        let mut clone = original.clone();
        assert_eq!(clone.sym("VLDB"), vldb);
        assert_eq!(clone.interner().len(), 1);
        // Same bytes at the same address: the clones still share storage.
        assert!(std::ptr::eq(original.resolve(vldb), clone.resolve(vldb)));
        // A new string ends the sharing for the clone that interned it.
        clone.sym("EDBT");
        assert!(!std::ptr::eq(original.resolve(vldb), clone.resolve(vldb)));
    }

    #[test]
    fn null_gen_produces_distinct_ids() {
        let mut g = NullGen::new();
        let a = g.fresh();
        let b = g.fresh();
        assert_ne!(a, b);
        assert_eq!(g.allocated(), 2);
    }

    #[test]
    fn value_accessors() {
        let c = Value::Const(Sym(3));
        let n = Value::Null(NullId(7));
        assert!(c.is_const() && !c.is_null());
        assert!(n.is_null() && !n.is_const());
        assert_eq!(c.as_const(), Some(Sym(3)));
        assert_eq!(c.as_null(), None);
        assert_eq!(n.as_null(), Some(NullId(7)));
        assert_eq!(n.as_const(), None);
    }

    #[test]
    fn value_is_small_and_copy() {
        assert!(std::mem::size_of::<Value>() <= 8);
        let v = Value::Const(Sym(1));
        let w = v; // Copy
        assert_eq!(v, w);
    }

    #[test]
    fn null_display() {
        assert_eq!(NullId(12).to_string(), "_N12");
    }
}
