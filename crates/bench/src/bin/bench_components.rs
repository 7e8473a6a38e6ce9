//! Microbenchmarks of the matching engine's building blocks: the
//! per-attribute candidate index (Alg. 2), match-state push/pop (union-find
//! with rollback), and scoring.
//!
//! Run: `cargo run -p ic-bench --release --bin bench_components`

use ic_bench::harness::Suite;
use ic_core::{score_state, CandidateIndex, MatchState, ScoreConfig};
use ic_datagen::{mod_cell, Dataset, Scenario};
use ic_model::TupleId;

fn scenario(rows: usize) -> Scenario {
    mod_cell(Dataset::Bikeshare, rows, 0.05, 99)
}

fn main() {
    let mut suite = Suite::new("components");

    for rows in [1_000usize, 5_000] {
        let sc = scenario(rows);
        suite.measure(&format!("components/candidate_index/build/{rows}"), || {
            CandidateIndex::build(sc.target.tuples(sc.rel))
        });
        let index = CandidateIndex::build(sc.target.tuples(sc.rel));
        suite.measure(
            &format!("components/candidate_index/probe_all/{rows}"),
            || {
                let mut total = 0usize;
                for t in sc.source.tuples(sc.rel) {
                    total += index.compatible_candidates(&sc.target, t).len();
                }
                total
            },
        );
    }

    let sc = scenario(2_000);
    let pairs: Vec<(TupleId, TupleId)> = sc.gold.clone();
    suite.measure("components/match_state/push_all_gold_pairs", || {
        let mut st = MatchState::new(&sc.source, &sc.target);
        let mut pushed = 0usize;
        for &(l, r) in &pairs {
            if st.try_push_pair(sc.rel, l, r, false).is_ok() {
                pushed += 1;
            }
        }
        pushed
    });
    {
        let mut st = MatchState::new(&sc.source, &sc.target);
        suite.measure("components/match_state/push_pop_cycle", || {
            let mut n = 0usize;
            for &(l, r) in pairs.iter().take(256) {
                if st.try_push_pair(sc.rel, l, r, false).is_ok() {
                    st.pop_pair();
                    n += 1;
                }
            }
            n
        });
    }

    let mut st = MatchState::new(&sc.source, &sc.target);
    for &(l, r) in &sc.gold {
        let _ = st.try_push_pair(sc.rel, l, r, false);
    }
    let cfg = ScoreConfig::default();
    suite.measure("components/scoring/score_state_2k", || {
        score_state(&st, &cfg, &sc.catalog).score
    });

    suite.finish();
}
