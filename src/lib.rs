//! # instance-comparison
//!
//! A Rust implementation of **similarity measures for incomplete database
//! instances** — the EDBT 2024 paper by Glavic, Mecca, Miller, Papotti,
//! Santoro and Veltri — together with the substrates its evaluation depends
//! on (data-exchange chase and cores, constraint repair, data versioning).
//!
//! Incomplete instances use *labeled nulls*: placeholders whose identity
//! matters (the same null in two cells means "the same unknown value") but
//! whose name does not. Comparing two such instances means finding an
//! *instance match*: value mappings for both sides plus a tuple mapping
//! whose matched tuples agree under the mappings. The similarity is the
//! best score any match achieves — 1 exactly for isomorphic instances, 0
//! for ground instances sharing nothing.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`model`] | schemas, instances, labeled nulls, CSV I/O |
//! | [`core`] | scoring, exact and signature algorithms, homomorphisms |
//! | [`datagen`] | synthetic datasets and perturbation scenarios |
//! | [`exchange`] | s-t tgds, chase, core solutions |
//! | [`cleaning`] | FDs, error injection, repair systems, F1 metrics |
//! | [`versioning`] | version ops, diff baseline, comparison stats |
//! | [`discovery`] | approximate keys/FDs under possible-world g3 |
//! | [`index`] | top-k similarity search: sketches, signature inverted index |
//! | [`obs`] | spans, metrics, observation sinks (span trees, JSONL) |
//! | [`serve`] | similarity service: instance catalog, wire protocol, server, client |
//!
//! ## Quickstart
//!
//! ```
//! use instance_comparison::model::{Catalog, Instance, Schema};
//! use instance_comparison::core::Comparator;
//!
//! // Conference(Name, Year, Org) — two versions of the same data, one with
//! // a missing year encoded as a labeled null.
//! let mut cat = Catalog::new(Schema::single("Conference", &["Name", "Year", "Org"]));
//! let rel = cat.schema().rel("Conference").unwrap();
//! let (vldb, y75, end) = (cat.konst("VLDB"), cat.konst("1975"), cat.konst("VLDB End."));
//! let null_year = cat.fresh_null();
//!
//! let mut v1 = Instance::new("v1", &cat);
//! v1.insert(rel, vec![vldb, y75, end]);
//! let mut v2 = Instance::new("v2", &cat);
//! v2.insert(rel, vec![vldb, null_year, end]);
//!
//! let cmp = Comparator::new(&cat).build().unwrap();
//! let out = cmp.signature(&v1, &v2).unwrap();
//! assert_eq!(out.best.pairs.len(), 1);           // the tuples correspond
//! assert!(out.best.score() > 0.7 && out.best.score() < 1.0);
//! ```

#![warn(missing_docs)]

/// One-import convenience: the types and functions most programs need.
///
/// ```
/// use instance_comparison::prelude::*;
///
/// let mut cat = Catalog::new(Schema::single("R", &["A"]));
/// let rel = cat.schema().rel("R").unwrap();
/// let v = cat.konst("v");
/// let mut left = Instance::new("I", &cat);
/// left.insert(rel, vec![v]);
/// let right = left.clone();
/// let out = signature_match(&left, &right, &cat, &SignatureConfig::default());
/// assert_eq!(out.best.score(), 1.0);
/// ```
pub mod prelude {
    pub use ic_core::{
        exact_match, explain, is_homomorphic, isomorphic, render_diff, signature_match, Comparator,
        Error, ExactConfig, InstanceMatch, MatchMode, ScoreConfig, SignatureConfig,
    };
    pub use ic_model::{Catalog, Instance, RelId, Schema, TupleId, Value};
}

pub use ic_cleaning as cleaning;
pub use ic_core as core;
pub use ic_datagen as datagen;
pub use ic_discovery as discovery;
pub use ic_exchange as exchange;
pub use ic_index as index;
pub use ic_model as model;
pub use ic_obs as obs;
pub use ic_pool as pool;
pub use ic_serve as serve;
pub use ic_versioning as versioning;
