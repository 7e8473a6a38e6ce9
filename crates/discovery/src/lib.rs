//! # ic-discovery — approximate constraint discovery over incomplete instances
//!
//! Discovers *approximate keys* and *approximate functional dependencies*
//! on instances with labeled nulls, generalizing classical FD discovery
//! along two axes:
//!
//! 1. **Possible-world semantics.** A labeled null stands for every
//!    constant, so constraint satisfaction is world-dependent. Each
//!    candidate gets a `g3` violation *interval* —
//!    [`G3::g3_min`] (best case: some world nearly satisfies it) and
//!    [`G3::g3_max`] (worst case: every world does) — computed exactly per
//!    the semantics documented in [`measure`].
//! 2. **Composite determinants.** A TANE-style levelwise lattice search
//!    ([`discover_fds`] / [`discover_keys`]) over attribute sets up to
//!    [`DiscoveryConfig::max_lhs`], with stripped-partition refinement so
//!    composite candidates reuse the single-attribute partitions, minimal
//!    results only, parallel per candidate on [`ic_pool`], and
//!    bit-identical output at any thread count.
//!
//! ## Quick example
//!
//! ```
//! use ic_model::{AttrId, Catalog, Instance, RelId, Schema};
//! use ic_discovery::{discover_keys, DiscoveryConfig};
//!
//! let mut cat = Catalog::new(Schema::single("R", &["id", "grp"]));
//! let rel = RelId(0);
//! let mut inst = Instance::new("I", &cat);
//! for i in 0..10 {
//!     let id = cat.konst(&format!("id{i}"));
//!     let grp = cat.konst(&format!("g{}", i % 2));
//!     inst.insert(rel, vec![id, grp]);
//! }
//! let keys = discover_keys(&inst, &cat, &DiscoveryConfig::default()).unwrap();
//! assert_eq!(keys.len(), 1);
//! assert_eq!(keys[0].attrs, vec![AttrId(0)]); // id is the only key
//! assert_eq!(keys[0].g3.g3_max, 0.0);
//! ```

#![warn(missing_docs)]

mod lattice;
pub mod measure;
mod partition;

pub use lattice::{
    discover_fds, discover_keys, DiscoveredFd, DiscoveredKey, DiscoveryConfig, WorldGate,
};
pub use measure::{fd_g3, key_g3, G3};

use ic_model::{Catalog, Instance};

/// Both discovery passes bundled — what the serve layer's `discover`
/// request returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Discovery {
    /// Minimal approximate FDs, in `(rel, |lhs|, lhs, rhs)` order.
    pub fds: Vec<DiscoveredFd>,
    /// Minimal approximate keys, in `(rel, |attrs|, attrs)` order.
    pub keys: Vec<DiscoveredKey>,
}

/// Runs [`discover_fds`] and [`discover_keys`] under one configuration
/// (and one shared budget: the key pass gets what the FD pass left over).
pub fn discover(
    instance: &Instance,
    catalog: &Catalog,
    cfg: &DiscoveryConfig,
) -> Result<Discovery, ic_core::Error> {
    let started = std::time::Instant::now();
    let fds = discover_fds(instance, catalog, cfg)?;
    let key_cfg = DiscoveryConfig {
        budget: cfg.budget.map(|b| b.saturating_sub(started.elapsed())),
        ..cfg.clone()
    };
    let keys = discover_keys(instance, catalog, &key_cfg)?;
    Ok(Discovery { fds, keys })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_model::{AttrId, RelId, Schema};

    #[test]
    fn discover_bundles_both_passes() {
        let mut cat = Catalog::new(Schema::single("R", &["id", "grp", "tag"]));
        let rel = RelId(0);
        let mut inst = Instance::new("I", &cat);
        for i in 0..12 {
            let id = cat.konst(&format!("id{i}"));
            let grp = cat.konst(&format!("g{}", i % 3));
            let tag = cat.konst(&format!("t{}", i % 3));
            inst.insert(rel, vec![id, grp, tag]);
        }
        let d = discover(&inst, &cat, &DiscoveryConfig::default()).unwrap();
        assert!(d.keys.iter().any(|k| k.attrs == vec![AttrId(0)]));
        assert!(d
            .fds
            .iter()
            .any(|fd| fd.lhs == vec![AttrId(1)] && fd.rhs == AttrId(2)));
    }
}
