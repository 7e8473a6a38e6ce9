//! # ic-core — similarity measures for incomplete database instances
//!
//! Reproduction of the EDBT 2024 paper *"Similarity Measures For Incomplete
//! Database Instances"*: a similarity score for relational instances with
//! labeled nulls and no shared keys, together with the exact (NP-hard)
//! and the approximate PTIME *signature* algorithms that compute it.
//!
//! The score of an instance match `M = (h_l, h_r, m)` rewards matched cells
//! — 1 for equal constants, up to 1 for injectively renamed nulls, `λ` for a
//! null standing in for a constant — normalized by the instance sizes
//! (Sec. 5 of the paper). `similarity(I, I')` maximizes the score over all
//! complete instance matches (Def. 3.2).
//!
//! ## Quick example
//!
//! ```
//! use ic_model::{Catalog, Instance, Schema};
//! use ic_core::Comparator;
//!
//! let mut cat = Catalog::new(Schema::single("Conf", &["Name", "Year"]));
//! let rel = cat.schema().rel("Conf").unwrap();
//! let vldb = cat.konst("VLDB");
//! let y = cat.konst("1975");
//! let n = cat.fresh_null();
//!
//! let mut left = Instance::new("I", &cat);
//! left.insert(rel, vec![vldb, y]);
//! let mut right = Instance::new("I2", &cat);
//! right.insert(rel, vec![vldb, n]); // year unknown in the new version
//!
//! let cmp = Comparator::new(&cat).build().unwrap();
//! let out = cmp.signature(&left, &right).unwrap();
//! assert!(out.best.score() > 0.5 && out.best.score() < 1.0);
//! assert_eq!(out.best.pairs.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod comparator;
pub mod compat;
pub mod delta;
pub mod error;
pub mod exact;
pub mod explain;
pub mod ground;
pub mod hom;
pub mod mapping;
pub mod obs;
pub mod refine;
pub mod score;
pub mod signature;
pub mod similarity;
pub mod state;
pub mod strsim;
pub mod unionfind;
pub mod universe;

pub use comparator::{Comparator, ComparatorBuilder};
pub use compat::{c_compatible, compatible_tuples, pair_compatible, CandidateIndex};
pub use delta::{Delta, DeltaError, DeltaOp};
pub use error::Error;
pub use exact::{exact_match, ExactConfig, ExactOutcome};
pub use explain::{
    explain, render_diff, render_value_mapping, CellChange, InstanceDiff, PairExplanation,
};
pub use ground::{ground_match, ground_similarity};
pub use hom::{
    find_homomorphism, homomorphically_equivalent, is_homomorphic, isomorphic, Homomorphism,
};
pub use mapping::{InstanceMatch, Mapped, MatchMode, Pair, ScoreDetails, ValueMapping};
pub use refine::{refine_match, RefineConfig};
pub use score::{score_state, ConfigError, ScoreConfig};
pub use signature::{
    signature_match, signature_match_seeded, InstanceSigMaps, SignatureConfig, SignatureOutcome,
    SignatureStats,
};
pub use similarity::{symmetric_difference_similarity, Comparison};
pub use state::MatchState;
pub use universe::{Side, Universe};
