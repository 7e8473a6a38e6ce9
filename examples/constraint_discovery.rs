//! Approximate constraint discovery over an incomplete instance.
//!
//! `inject_near_constraints` plants a composite key and two FDs with a
//! known violation rate, then sprinkles labeled nulls. `ic-discovery`
//! computes each candidate's possible-world violation interval
//! `[g3_min, g3_max]` — the best and worst case over every valuation of
//! the nulls — and a TANE-style lattice search reports every *minimal*
//! constraint within the epsilon gate.
//!
//! Run with: `cargo run --release --example constraint_discovery`

use instance_comparison::datagen::{inject_near_constraints, NearConstraintParams};
use instance_comparison::discovery::{discover, DiscoveryConfig};

fn main() {
    let params = NearConstraintParams::default();
    let nc = inject_near_constraints(&params);
    let schema = nc.catalog.schema();
    let rel = schema.relation(nc.rel);
    println!(
        "planted NC({}) with {} rows, {} violating rows per constraint (g3 = {:.4}), null rate {}",
        rel.attrs().collect::<Vec<_>>().join(", "),
        params.rows,
        nc.violations,
        nc.epsilon,
        params.null_rate,
    );

    // Gate at the planted violation ratio: nulls can only lower g3_min,
    // so every planted constraint must be recalled.
    let cfg = DiscoveryConfig {
        epsilon: nc.epsilon,
        ..DiscoveryConfig::default()
    };
    let found = discover(&nc.instance, &nc.catalog, &cfg).unwrap();

    println!("\ndiscovered keys (epsilon = {:.4}):", cfg.epsilon);
    for key in &found.keys {
        let names: Vec<_> = key.attrs.iter().map(|&a| rel.attr_name(a)).collect();
        println!(
            "  [{}]  g3 in [{:.4}, {:.4}]  covered {}",
            names.join(", "),
            key.g3.g3_min,
            key.g3.g3_max,
            key.covered
        );
    }
    println!("discovered FDs:");
    for fd in &found.fds {
        let lhs: Vec<_> = fd.lhs.iter().map(|&a| rel.attr_name(a)).collect();
        println!(
            "  [{}] -> {}  g3 in [{:.4}, {:.4}]  support {}",
            lhs.join(", "),
            rel.attr_name(fd.rhs),
            fd.g3.g3_min,
            fd.g3.g3_max,
            fd.support
        );
    }

    let planted_key_found = found.keys.iter().any(|k| k.attrs == nc.key);
    let planted_fds_found = nc
        .fds
        .iter()
        .all(|(lhs, rhs)| found.fds.iter().any(|fd| &fd.lhs == lhs && fd.rhs == *rhs));
    println!(
        "\nrecall of planted constraints: key {}, FDs {}",
        if planted_key_found { "yes" } else { "NO" },
        if planted_fds_found { "yes" } else { "NO" },
    );
    assert!(planted_key_found && planted_fds_found);
}
