//! # ic-cleaning — constraint-based data-repair substrate
//!
//! Functional dependencies, BART-style error injection, simplified models
//! of four repair systems (Holistic, HoloClean, Llunatic, Sampling), and
//! the F1 / instance-F1 metrics of the paper's Table 5 evaluation. The
//! similarity score that Table 5 compares against is computed by
//! `ic-core`'s signature algorithm on (repair, gold) pairs.

#![warn(missing_docs)]

pub mod dataset;
pub mod errors;
pub mod fd;
pub mod metrics;
pub mod systems;

pub use dataset::{bus_cleaning_dataset, bus_schema, BUS_ARITY};
pub use errors::{inject_errors, DirtyInstance, InjectedError};
pub use fd::{violations, Fd, ViolationGroup};
pub use metrics::{instance_f1, repair_f1, PrF1};
pub use systems::RepairSystem;
