//! Version-history reconstruction from pairwise similarities.
//!
//! The paper's introduction motivates instance similarity with data lakes
//! where "new versions of datasets may be added without identifying them as
//! such": given a bag of versions, the pairwise similarity matrix reveals
//! which versions are adjacent in the (unknown) evolution chain, because
//! each step only perturbs the data a little — similarity decreases
//! monotonically with chain distance.
//!
//! [`reconstruct_chain`] greedily orders versions by nearest-neighbor
//! similarity starting from a given endpoint; [`find_endpoints`] guesses the
//! endpoints as the pair with the *lowest* similarity.

use ic_core::{signature_match_seeded, InstanceSigMaps, SignatureConfig};
use ic_model::{Catalog, Instance};

/// Computes the symmetric pairwise similarity matrix of `versions` with the
/// signature algorithm (diagonal = 1).
///
/// Each version's per-relation signature maps are built **once** and seed
/// every comparison the version takes part in: `n` map builds instead of
/// the `n(n−1)` of comparing each pair from scratch. The matrix is
/// bit-identical to the from-scratch one under the seeding contract of
/// [`signature_match_seeded`].
pub fn similarity_matrix(
    versions: &[&Instance],
    catalog: &Catalog,
    cfg: &SignatureConfig,
) -> Vec<Vec<f64>> {
    let maps: Vec<InstanceSigMaps> = versions
        .iter()
        .map(|v| InstanceSigMaps::build(v, cfg))
        .collect();
    let n = versions.len();
    let mut m = vec![vec![1.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s = signature_match_seeded(
                versions[i],
                versions[j],
                catalog,
                cfg,
                Some(&maps[i]),
                Some(&maps[j]),
            )
            .best
            .score();
            m[i][j] = s;
            m[j][i] = s;
        }
    }
    m
}

/// Returns the pair of indices with the lowest pairwise similarity — the
/// natural guess for the two endpoints of an evolution chain.
pub fn find_endpoints(matrix: &[Vec<f64>]) -> (usize, usize) {
    let n = matrix.len();
    let mut best = (0, if n > 1 { 1 } else { 0 });
    let mut best_sim = f64::INFINITY;
    for (i, row) in matrix.iter().enumerate() {
        for (j, &sim) in row.iter().enumerate().skip(i + 1) {
            if sim < best_sim {
                best_sim = sim;
                best = (i, j);
            }
        }
    }
    best
}

/// Greedy nearest-neighbor ordering: starting from `start`, repeatedly
/// append the unvisited version most similar to the current one.
pub fn reconstruct_chain(matrix: &[Vec<f64>], start: usize) -> Vec<usize> {
    let n = matrix.len();
    let mut order = vec![start];
    let mut visited = vec![false; n];
    visited[start] = true;
    while order.len() < n {
        let cur = *order.last().expect("non-empty");
        let mut best: Option<(usize, f64)> = None;
        for (j, &seen) in visited.iter().enumerate() {
            if seen {
                continue;
            }
            let s = matrix[cur][j];
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((j, s));
            }
        }
        let (next, _) = best.expect("unvisited version exists");
        visited[next] = true;
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::signature_match;
    use ic_datagen::{evolve_chain, Dataset, EvolveParams};

    #[test]
    fn reconstructs_generated_chain() {
        let chain = evolve_chain(Dataset::Bikeshare, 120, 4, &EvolveParams::default(), 11);
        let refs: Vec<&ic_model::Instance> = chain.versions.iter().collect();
        let m = similarity_matrix(&refs, &chain.catalog, &SignatureConfig::default());
        // Similarity decreases with chain distance from v0.
        for k in 2..m.len() {
            assert!(
                m[0][k] <= m[0][k - 1] + 0.02,
                "similarity to v0 should shrink: {:?}",
                m[0]
            );
        }
        // Endpoints are the most dissimilar pair.
        let (a, b) = find_endpoints(&m);
        assert_eq!((a.min(b), a.max(b)), (0, m.len() - 1));
        // Nearest-neighbor ordering recovers the chain (or its reverse).
        let order = reconstruct_chain(&m, 0);
        let expected: Vec<usize> = (0..m.len()).collect();
        assert_eq!(order, expected);
        let reversed = reconstruct_chain(&m, m.len() - 1);
        let expected_rev: Vec<usize> = (0..m.len()).rev().collect();
        assert_eq!(reversed, expected_rev);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let chain = evolve_chain(Dataset::Iris, 50, 2, &EvolveParams::default(), 12);
        let refs: Vec<&ic_model::Instance> = chain.versions.iter().collect();
        let m = similarity_matrix(&refs, &chain.catalog, &SignatureConfig::default());
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - m[j][i]).abs() < 1e-12);
            }
        }
    }

    /// The matrix compared pair by pair from scratch, without shared maps.
    fn scratch_matrix(
        versions: &[&Instance],
        catalog: &Catalog,
        cfg: &SignatureConfig,
    ) -> Vec<Vec<f64>> {
        let n = versions.len();
        let mut m = vec![vec![1.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let s = signature_match(versions[i], versions[j], catalog, cfg)
                    .best
                    .score();
                m[i][j] = s;
                m[j][i] = s;
            }
        }
        m
    }

    #[test]
    fn shared_maps_matrix_is_bit_identical_to_scratch() {
        let chain = evolve_chain(Dataset::Iris, 60, 4, &EvolveParams::default(), 21);
        let refs: Vec<&ic_model::Instance> = chain.versions.iter().collect();
        for cfg in [
            SignatureConfig::default(),
            SignatureConfig {
                partial: true,
                ..Default::default()
            },
        ] {
            let scratch = scratch_matrix(&refs, &chain.catalog, &cfg);
            let shared = similarity_matrix(&refs, &chain.catalog, &cfg);
            for (row_s, row_c) in scratch.iter().zip(&shared) {
                for (a, b) in row_s.iter().zip(row_c) {
                    assert_eq!(a.to_bits(), b.to_bits(), "partial={}", cfg.partial);
                }
            }
        }
    }

    #[test]
    fn single_version_chain() {
        let m = vec![vec![1.0]];
        assert_eq!(reconstruct_chain(&m, 0), vec![0]);
        assert_eq!(find_endpoints(&m), (0, 0));
    }
}
