//! Approximate constraint discovery ([`ic_discovery`]) on the
//! near-constraint scenario: precision/recall against the planted ground
//! truth across an epsilon grid, and lattice throughput in rows/s.
//!
//! `inject_near_constraints` plants one composite key and two FDs, each
//! violated by exactly `⌊rows · rate⌋` rows, then sprinkles labeled nulls.
//! Acceptance criterion asserted before any timing: **recall = 1.0** at
//! the planted epsilon under the `Possible` gate — nulls only lower
//! `g3_min`, so no planted constraint may escape.
//!
//! Precision is reported, not asserted: the planted key genuinely implies
//! `key → attr` FDs on the clean rows, so "extra" discoveries at loose
//! epsilon are real approximate constraints, not false positives.
//!
//! Run: `cargo run -p ic-bench --release --bin bench_discovery`

use ic_bench::harness::Suite;
use ic_datagen::{inject_near_constraints, NearConstraintParams};
use ic_discovery::{discover, DiscoveryConfig};
const ROWS: usize = 2048;

fn main() {
    let params = NearConstraintParams {
        rows: ROWS,
        ..NearConstraintParams::default()
    };
    let nc = inject_near_constraints(&params);

    let mut suite = Suite::new("BENCH_discovery");
    suite.set_meta("rows", &ROWS.to_string());
    suite.set_meta("violations_per_constraint", &nc.violations.to_string());
    suite.set_meta("planted_epsilon", &format!("{:.6}", nc.epsilon));
    suite.set_meta(
        "cores",
        &std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .to_string(),
    );

    // Ground truth: 1 key + 2 FDs. Recall counts planted constraints
    // found; precision counts reported constraints that are planted.
    let planted = 1 + nc.fds.len();
    let grid = [
        nc.epsilon / 4.0,
        nc.epsilon / 2.0,
        nc.epsilon,
        nc.epsilon * 2.0,
    ];
    for (i, &eps) in grid.iter().enumerate() {
        let cfg = DiscoveryConfig {
            epsilon: eps,
            ..DiscoveryConfig::default()
        };
        let found = discover(&nc.instance, &nc.catalog, &cfg).unwrap();
        let key_hit = found.keys.iter().filter(|k| k.attrs == nc.key).count();
        let fd_hits = nc
            .fds
            .iter()
            .filter(|(lhs, rhs)| found.fds.iter().any(|fd| &fd.lhs == lhs && fd.rhs == *rhs))
            .count();
        let hits = key_hit + fd_hits;
        let reported = found.keys.len() + found.fds.len();
        let recall = hits as f64 / planted as f64;
        let precision = if reported == 0 {
            1.0
        } else {
            hits as f64 / reported as f64
        };
        suite.set_meta(&format!("grid{i}_eps"), &format!("{eps:.6}"));
        suite.set_meta(&format!("grid{i}_recall"), &format!("{recall:.4}"));
        suite.set_meta(&format!("grid{i}_precision"), &format!("{precision:.4}"));
        if (eps - nc.epsilon).abs() < 1e-12 {
            assert_eq!(
                recall, 1.0,
                "recall at the planted epsilon must be 1.0 under the Possible \
                 gate; found {hits}/{planted} (keys {key_hit}, fds {fd_hits})"
            );
        }
    }

    // Throughput: full two-pass discovery at the planted epsilon.
    let cfg = DiscoveryConfig {
        epsilon: nc.epsilon,
        ..DiscoveryConfig::default()
    };
    suite.measure("discovery/discover", || {
        discover(&nc.instance, &nc.catalog, &cfg).unwrap().fds.len()
    });
    let median = suite.records().last().expect("just measured").median;
    suite.set_meta(
        "rows_per_sec",
        &format!(
            "{:.0}",
            ROWS as f64 / median.as_secs_f64().max(f64::MIN_POSITIVE)
        ),
    );

    suite.finish();
}
