//! The observability layer: a re-export of the full [`ic_obs`] API
//! (observations, sinks, reports).
//!
//! All instrumentation in this crate goes through this module, and
//! downstream code can write `ic_core::obs::observe(..)` without depending
//! on `ic-obs` directly.

pub use ic_obs::*;
