//! Multi-relation comparison scenarios: Conference/Paper-style instances
//! where labeled nulls act as surrogate keys *across* relations (paper
//! Fig. 4). Matching must interpret each surrogate consistently in every
//! relation it occurs in — the dimension single-relation scenarios cannot
//! exercise.

use ic_core::{InstanceMatch, MatchState, Pair, ScoreConfig};
use ic_model::{Catalog, Instance, RelId, RelationSchema, Schema, TupleId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A generated multi-relation scenario with a gold tuple mapping.
#[derive(Debug)]
pub struct MultiRelScenario {
    /// Shared catalog (relations `Conference`, `Paper`).
    pub catalog: Catalog,
    /// The ground instance (integer surrogate keys).
    pub ground: Instance,
    /// The exchanged instance (labeled-null surrogate keys, some places
    /// unknown), perturbed and shuffled.
    pub exchanged: Instance,
    /// Gold tuple mapping (exchanged id, ground id).
    pub gold: Vec<(TupleId, TupleId)>,
    /// The Conference relation.
    pub conf: RelId,
    /// The Paper relation.
    pub paper: RelId,
}

impl MultiRelScenario {
    /// Realizes the gold mapping as a feasible match and scores it.
    pub fn gold_match(&self, cfg: &ScoreConfig) -> InstanceMatch {
        let pairs = self.gold.iter().map(|&(left, right)| Pair {
            rel: self.exchanged.rel_of(left).expect("tuple exists"),
            left,
            right,
        });
        MatchState::replay(&self.exchanged, &self.ground, pairs, false).to_match(cfg, &self.catalog)
    }
}

/// Builds the Conference/Paper schema of the paper's Fig. 3.
pub fn conference_schema() -> Schema {
    let mut s = Schema::new();
    s.add_relation(RelationSchema::new(
        "Conference",
        &["Id", "Name", "Year", "Place", "Org"],
    ));
    s.add_relation(RelationSchema::new(
        "Paper",
        &["Authors", "Title", "ConfId"],
    ));
    s
}

/// Generates a scenario with `conferences` conference tuples and
/// `papers_per_conf` papers each.
///
/// The ground instance uses integer ids; the exchanged instance replaces
/// every id by a surrogate labeled null shared between the `Conference`
/// tuple and its `Paper` tuples (the Fig. 4 vertical-partition pattern),
/// nulls out `place` with probability `place_null_rate`, and is shuffled.
pub fn conference_scenario(
    conferences: usize,
    papers_per_conf: usize,
    place_null_rate: f64,
    seed: u64,
) -> MultiRelScenario {
    let mut catalog = Catalog::new(conference_schema());
    let conf = catalog.schema().rel("Conference").unwrap();
    let paper = catalog.schema().rel("Paper").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut ground = Instance::new("ground", &catalog);
    let mut exchanged = Instance::new("exchanged", &catalog);
    let mut gold: Vec<(TupleId, TupleId)> = Vec::new();

    for c in 0..conferences {
        let id = catalog.konst(&format!("{c}"));
        let name = catalog.konst(&format!("Conf{}", c % (conferences / 2).max(1)));
        let year = catalog.konst(&format!("{}", 1970 + (c % 55)));
        let place = catalog.konst(&format!("City{}", rng.random_range(0..200)));
        let org = catalog.konst(&format!("Org{}", c % 25));
        let g_conf = ground.insert(conf, vec![id, name, year, place, org]);

        // Exchanged: surrogate null id shared with the papers; place
        // sometimes unknown.
        let surrogate = catalog.fresh_null();
        let e_place = if rng.random::<f64>() < place_null_rate {
            catalog.fresh_null()
        } else {
            place
        };
        let e_conf = exchanged.insert(conf, vec![surrogate, name, year, e_place, org]);
        gold.push((e_conf, g_conf));

        for p in 0..papers_per_conf {
            let authors = catalog.konst(&format!("Author{}", rng.random_range(0..1000)));
            let title = catalog.konst(&format!("Title_{c}_{p}"));
            let g_paper = ground.insert(paper, vec![authors, title, id]);
            let e_paper = exchanged.insert(paper, vec![authors, title, surrogate]);
            gold.push((e_paper, g_paper));
        }
    }

    // Shuffle the exchanged instance.
    for rel in [conf, paper] {
        let n = exchanged.tuples(rel).len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        exchanged.permute(rel, &order);
    }

    MultiRelScenario {
        catalog,
        ground,
        exchanged,
        gold,
        conf,
        paper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::{signature_match, Mapped, Side, SignatureConfig};

    #[test]
    fn gold_mapping_is_fully_feasible() {
        let sc = conference_scenario(40, 3, 0.2, 1);
        let gold = sc.gold_match(&ScoreConfig::default());
        assert_eq!(gold.pairs.len(), 40 * 4);
        // Every surrogate null resolves to its conference's integer id.
        assert!(gold.details.score > 0.8);
    }

    #[test]
    fn signature_matches_across_relations_consistently() {
        let sc = conference_scenario(60, 3, 0.2, 2);
        let out = signature_match(
            &sc.exchanged,
            &sc.ground,
            &sc.catalog,
            &SignatureConfig::default(),
        );
        // All tuples matched.
        assert_eq!(out.best.pairs.len(), 60 * 4);
        // Every left surrogate null maps to a constant (a ground id).
        let h_l = (out.best.replay(&sc.exchanged, &sc.ground)).value_mapping(Side::Left);
        let surrogate_images: Vec<Mapped> = h_l
            .iter()
            .filter(|(v, _)| v.is_null())
            .map(|(_, &m)| m)
            .collect();
        assert!(!surrogate_images.is_empty());
        // The conference-id surrogates (used in Paper.ConfId too) must map
        // to constants; unknown places may stay nulls.
        let const_images = surrogate_images
            .iter()
            .filter(|m| matches!(m, Mapped::Const(_)))
            .count();
        assert!(
            const_images >= 60,
            "only {const_images} surrogates grounded"
        );
        assert!(
            out.best.score() >= sc.gold_score_for_test() - 1e-9,
            "greedy below gold"
        );
    }

    impl MultiRelScenario {
        fn gold_score_for_test(&self) -> f64 {
            self.gold_match(&ScoreConfig::default()).details.score
        }
    }

    #[test]
    fn deterministic() {
        let a = conference_scenario(10, 2, 0.3, 7);
        let b = conference_scenario(10, 2, 0.3, 7);
        assert_eq!(
            a.gold_match(&ScoreConfig::default()).details.score,
            b.gold_match(&ScoreConfig::default()).details.score
        );
    }

    #[test]
    fn place_null_rate_zero_gives_isomorphic_up_to_ids() {
        // With no nulled places, the only differences are surrogate ids,
        // which ground perfectly: gold score has only the λ penalty for
        // null-to-constant id cells.
        let sc = conference_scenario(20, 2, 0.0, 3);
        let gold = sc.gold_match(&ScoreConfig::default());
        // Conference: 4 of 5 cells perfect + λ cell; Paper: 2 of 3 + λ.
        let lambda = 0.5;
        let conf_pair = 4.0 + lambda;
        let paper_pair = 2.0 + lambda;
        let total = 2.0 * (20.0 * conf_pair + 40.0 * paper_pair);
        let norm = 2.0 * (20.0 * 5.0 + 40.0 * 3.0);
        let expected = total / norm;
        assert!(
            (gold.details.score - expected).abs() < 1e-9,
            "{} vs {expected}",
            gold.details.score
        );
    }
}
