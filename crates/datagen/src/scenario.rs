//! Perturbation scenarios with gold tuple mappings (paper Sec. 7.1).
//!
//! Starting from a base table `I`, the generator clones it into a source
//! `I_s` and a target `I_t` whose tuples are initially in bijection (an
//! isomorphism by construction), then applies:
//!
//! * **modCell** — replace `C%` of the cells with a fresh labeled null or a
//!   new random constant (equal probability), independently in source and
//!   target;
//! * **addRandomAndRedundant** — run modCell, then insert `Rnd%` fresh
//!   random tuples and duplicate `Red%` existing tuples on both sides
//!   (exercising non-functional / non-injective mappings).
//!
//! Both instances are shuffled at the end. The known gold mapping is kept in
//! sync: pairs whose tuples were made incompatible by the noise are dropped
//! when the gold match is realized, exactly like the paper's
//! "updating the mappings according to these changes". The score of the
//! gold match is the paper's *score by construction* (the `*` entries in
//! Tables 2–3), used where the exact algorithm would time out.

use crate::datasets::{ColumnGen, Dataset, TableSpec};
use ic_core::{InstanceMatch, MatchState, Pair, ScoreConfig};
use ic_model::{AttrId, Catalog, Instance, RelId, Schema, TupleId, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// A generated comparison scenario.
#[derive(Debug)]
pub struct Scenario {
    /// Catalog shared by both instances.
    pub catalog: Catalog,
    /// The (perturbed) source instance `I_s`.
    pub source: Instance,
    /// The (perturbed) target instance `I_t`.
    pub target: Instance,
    /// The single relation of the scenario.
    pub rel: RelId,
    /// Gold tuple mapping (source id, target id); superset of the feasible
    /// gold match — infeasible pairs are dropped by [`Scenario::gold_match`].
    pub gold: Vec<(TupleId, TupleId)>,
}

impl Scenario {
    /// Realizes the gold mapping as a feasible instance match: pairs are
    /// pushed in order and pairs broken by the injected noise are skipped.
    /// Returns the match with its score — the *score by construction*.
    pub fn gold_match(&self, cfg: &ScoreConfig) -> InstanceMatch {
        let pairs = self.gold.iter().map(|&(left, right)| Pair {
            rel: self.rel,
            left,
            right,
        });
        MatchState::replay(&self.source, &self.target, pairs, false).to_match(cfg, &self.catalog)
    }

    /// The gold score (score of [`Scenario::gold_match`]).
    pub fn gold_score(&self, cfg: &ScoreConfig) -> f64 {
        self.gold_match(cfg).details.score
    }
}

/// Parameters of scenario generation.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Fraction of cells to modify (the paper's `C%`, e.g. `0.05`).
    pub cell_noise: f64,
    /// Fraction of fresh random tuples to add (`Rnd%`).
    pub random_frac: f64,
    /// Fraction of tuples to duplicate (`Red%`).
    pub redundant_frac: f64,
    /// If `true`, constant replacements are *typos* of the original value
    /// (a mutated string) instead of fresh random constants — the setting
    /// where partial matches with string similarity (Sec. 6.3 / Sec. 9)
    /// shine.
    pub typos: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            cell_noise: 0.05,
            random_frac: 0.0,
            redundant_frac: 0.0,
            typos: false,
            seed: 0xDA7A,
        }
    }
}

/// Convenience: the paper's *modCell* scenario with `C% = cell_noise`.
/// # Example
///
/// ```
/// use ic_datagen::{mod_cell, Dataset};
/// use ic_core::ScoreConfig;
///
/// let sc = mod_cell(Dataset::Iris, 50, 0.05, 42);
/// let gold = sc.gold_score(&ScoreConfig::default());
/// assert!(gold > 0.5 && gold <= 1.0);
/// ```
pub fn mod_cell(dataset: Dataset, rows: usize, cell_noise: f64, seed: u64) -> Scenario {
    build_scenario(
        dataset,
        rows,
        &ScenarioParams {
            cell_noise,
            random_frac: 0.0,
            redundant_frac: 0.0,
            typos: false,
            seed,
        },
    )
}

/// Convenience: the *modCell* scenario with typo-style constant noise.
pub fn mod_cell_typos(dataset: Dataset, rows: usize, cell_noise: f64, seed: u64) -> Scenario {
    build_scenario(
        dataset,
        rows,
        &ScenarioParams {
            cell_noise,
            random_frac: 0.0,
            redundant_frac: 0.0,
            typos: true,
            seed,
        },
    )
}

/// Convenience: the paper's *addRandomAndRedundant* scenario.
pub fn add_random_and_redundant(
    dataset: Dataset,
    rows: usize,
    cell_noise: f64,
    random_frac: f64,
    redundant_frac: f64,
    seed: u64,
) -> Scenario {
    build_scenario(
        dataset,
        rows,
        &ScenarioParams {
            cell_noise,
            random_frac,
            redundant_frac,
            typos: false,
            seed,
        },
    )
}

/// Generates a scenario from a dataset profile.
pub fn build_scenario(dataset: Dataset, rows: usize, params: &ScenarioParams) -> Scenario {
    let spec = dataset.spec();
    build_scenario_from_spec(&spec, rows, params)
}

/// Generates a scenario from an arbitrary table spec.
pub fn build_scenario_from_spec(
    spec: &TableSpec,
    rows: usize,
    params: &ScenarioParams,
) -> Scenario {
    let attr_names: Vec<&str> = spec.columns.iter().map(|c| c.name).collect();
    let mut catalog = Catalog::new(Schema::single(spec.table, &attr_names));
    let rel = catalog.schema().rel(spec.table).expect("just created");
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Base table; cloned into source and target so the initial mapping is
    // the identity on positions.
    let base = generate_base(spec, rows, &mut catalog, &mut rng);
    let mut source = base.clone();
    source.set_name(format!("{}-source", spec.table));
    let mut target = base;
    target.set_name(format!("{}-target", spec.table));

    let mut gold: Vec<(TupleId, TupleId)> = source
        .tuples(rel)
        .iter()
        .zip(target.tuples(rel))
        .map(|(s, t)| (s.id(), t.id()))
        .collect();

    // modCell on both sides.
    let arity = spec.arity();
    for inst in [&mut source, &mut target] {
        let n_cells = inst.num_tuples() * arity;
        let n_changes = (n_cells as f64 * params.cell_noise).round() as usize;
        let ids: Vec<TupleId> = inst.tuples(rel).iter().map(|t| t.id()).collect();
        for k in 0..n_changes {
            let tid = ids[rng.random_range(0..ids.len())];
            let attr = AttrId(rng.random_range(0..arity) as u16);
            let new_val = if rng.random::<f64>() < 0.5 {
                catalog.fresh_null()
            } else if params.typos {
                // Mutate the current value into a near-identical string.
                let old = inst.tuple(tid).expect("exists").value(attr);
                let base = catalog.render(old);
                catalog.konst(&format!("{base}~"))
            } else {
                catalog.konst(&format!("rnd_{}_{k}", params.seed))
            };
            inst.set_value(tid, attr, new_val);
        }
    }

    // addRandomAndRedundant.
    if params.random_frac > 0.0 || params.redundant_frac > 0.0 {
        let n_random = (rows as f64 * params.random_frac).round() as usize;
        let n_redundant = (rows as f64 * params.redundant_frac).round() as usize;
        for (side, inst) in [(0u8, &mut source), (1u8, &mut target)] {
            // Fresh random tuples: values from per-column fresh domains so
            // they do not accidentally collide with gold tuples.
            for k in 0..n_random {
                let values: Vec<Value> = spec
                    .columns
                    .iter()
                    .map(|c| {
                        let r: u32 = rng.random_range(0..1_000_000);
                        catalog.konst(&format!("extra_{side}_{}_{k}_{r}", c.name))
                    })
                    .collect();
                inst.insert(rel, values);
            }
            // Redundant tuples: duplicates of existing ones; a duplicate
            // inherits the gold partner of its original (n-to-m gold).
            let current: Vec<TupleId> = inst.tuples(rel).iter().map(|t| t.id()).collect();
            for _ in 0..n_redundant {
                let orig = current[rng.random_range(0..current.len())];
                let values = inst.tuple(orig).expect("exists").values().to_vec();
                let dup = inst.insert(rel, values);
                if side == 0 {
                    let partners: Vec<TupleId> = gold
                        .iter()
                        .filter(|&&(s, _)| s == orig)
                        .map(|&(_, t)| t)
                        .collect();
                    gold.extend(partners.into_iter().map(|t| (dup, t)));
                } else {
                    let partners: Vec<TupleId> = gold
                        .iter()
                        .filter(|&&(_, t)| t == orig)
                        .map(|&(s, _)| s)
                        .collect();
                    gold.extend(partners.into_iter().map(|s| (s, dup)));
                }
            }
        }
    }

    // Shuffle both instances (tuple ids are stable under permutation).
    for inst in [&mut source, &mut target] {
        let n = inst.tuples(rel).len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        inst.permute(rel, &order);
    }

    Scenario {
        catalog,
        source,
        target,
        rel,
        gold,
    }
}

/// Generates the base table (like [`crate::datasets::generate_table`] but
/// into an existing catalog with the caller's RNG).
fn generate_base(
    spec: &TableSpec,
    rows: usize,
    catalog: &mut Catalog,
    rng: &mut StdRng,
) -> Instance {
    let rel = catalog.schema().rel(spec.table).expect("relation exists");
    let mut instance = Instance::new(spec.table, catalog);
    let gen = ColumnGen::new(spec, rows);
    for row in 0..rows {
        let values = gen.row(row, catalog, rng);
        instance.insert(rel, values);
    }
    instance
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typo_noise_produces_similar_strings() {
        let sc = mod_cell_typos(Dataset::Iris, 60, 0.20, 8);
        // Some constant of the source ends with the typo marker.
        let mut found = false;
        for t in sc.source.tuples(sc.rel) {
            for &v in t.values() {
                if let ic_model::Value::Const(s) = v {
                    if sc.catalog.resolve(s).ends_with('~') {
                        found = true;
                    }
                }
            }
        }
        assert!(found, "expected typo-mutated constants");
    }

    #[test]
    fn zero_noise_scenario_is_isomorphic() {
        let sc = mod_cell(Dataset::Iris, 100, 0.0, 1);
        assert!((sc.gold_score(&ScoreConfig::default()) - 1.0).abs() < 1e-12);
        assert_eq!(sc.gold.len(), 100);
    }

    #[test]
    fn noise_reduces_gold_score() {
        let sc = mod_cell(Dataset::Iris, 100, 0.10, 1);
        let score = sc.gold_score(&ScoreConfig::default());
        assert!(score < 1.0);
        assert!(score > 0.3, "score {score} unreasonably low");
    }

    #[test]
    fn more_noise_means_lower_gold_score() {
        let s1 = mod_cell(Dataset::Bikeshare, 200, 0.05, 2).gold_score(&ScoreConfig::default());
        let s2 = mod_cell(Dataset::Bikeshare, 200, 0.30, 2).gold_score(&ScoreConfig::default());
        assert!(s2 < s1, "{s2} !< {s1}");
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = mod_cell(Dataset::Iris, 50, 0.05, 9);
        let b = mod_cell(Dataset::Iris, 50, 0.05, 9);
        assert_eq!(
            a.gold_score(&ScoreConfig::default()),
            b.gold_score(&ScoreConfig::default())
        );
        let ta: Vec<_> = a.source.tuples(a.rel).iter().map(|t| t.id()).collect();
        let tb: Vec<_> = b.source.tuples(b.rel).iter().map(|t| t.id()).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn add_random_and_redundant_grows_instances() {
        let sc = add_random_and_redundant(Dataset::Iris, 100, 0.05, 0.10, 0.10, 3);
        assert!(sc.source.num_tuples() >= 115);
        assert!(sc.target.num_tuples() >= 115);
        // Gold includes duplicate-inherited pairs → more than 100 pairs.
        assert!(sc.gold.len() > 100);
    }

    #[test]
    fn gold_match_is_feasible_and_scores() {
        let sc = add_random_and_redundant(Dataset::Bikeshare, 150, 0.05, 0.10, 0.10, 4);
        let m = sc.gold_match(&ScoreConfig::default());
        // With 5% cell noise on arity 9, a pair breaks whenever either side
        // received a conflicting random constant (~35% of pairs); well over
        // a third must survive.
        assert!(
            m.pairs.len() as f64 > 0.35 * 150.0,
            "{} pairs",
            m.pairs.len()
        );
        assert!(m.details.score > 0.2 && m.details.score < 1.0);
    }

    #[test]
    fn shuffling_changed_positions_but_not_ids() {
        let sc = mod_cell(Dataset::Bikeshare, 300, 0.0, 5);
        // With zero noise, gold pairs align identical tuples even though
        // positions were shuffled.
        let m = sc.gold_match(&ScoreConfig::default());
        assert_eq!(m.pairs.len(), 300);
        for p in &m.pairs {
            let s = sc.source.tuple(p.left).unwrap();
            let t = sc.target.tuple(p.right).unwrap();
            assert_eq!(s.values(), t.values());
        }
    }
}
