//! Performance regression guards (release builds only — debug builds are
//! 10–50× slower and would make the bounds meaningless, so the tests are
//! ignored there).

use instance_comparison::core::{
    signature_match, MatchMode, ScoreConfig, Side, SignatureConfig, SignatureOutcome,
};
use instance_comparison::datagen::{
    add_random_and_redundant, conference_scenario, mod_cell, Dataset,
};
use instance_comparison::model::{Catalog, Instance};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// FNV-1a 64 over a canonical rendering of everything a signature run
/// returns except `elapsed`: the score bits (final, per pair and both
/// step statistics), the pairs in match order, both value mappings sorted
/// by value (rendered by replaying the match over `left` and `right`), the
/// matched counts and unmatched lists, the step attribution and the
/// timeout flag.
fn outcome_digest(out: &SignatureOutcome, left: &Instance, right: &Instance) -> u64 {
    let (best, d, s) = (&out.best, &out.best.details, &out.stats);
    let mut text = String::new();
    write!(
        text,
        "score={:x} sig={:x} final={:x} sig_matches={} exhaustive={} timed_out={}",
        d.score.to_bits(),
        s.sig_score.to_bits(),
        s.final_score.to_bits(),
        s.sig_matches,
        s.exhaustive_matches,
        out.timed_out,
    )
    .unwrap();
    let pair_bits: Vec<u64> = d.pair_scores.iter().map(|p| p.to_bits()).collect();
    write!(
        text,
        " pairs={:?} pair_scores={pair_bits:?} matched={}/{}/{} unmatched={:?}/{:?}",
        best.pairs,
        d.matched_pairs,
        d.matched_left,
        d.matched_right,
        d.unmatched_left,
        d.unmatched_right,
    )
    .unwrap();
    let state = best.replay(left, right);
    for side in [Side::Left, Side::Right] {
        let mapping = state.value_mapping(side);
        let mut entries: Vec<_> = mapping.iter().collect();
        entries.sort_by_key(|(v, _)| **v);
        write!(text, " mapping={entries:?}").unwrap();
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Debug-safe companion to the timing guards below: a tiny `mod_cell`
/// scenario with fully pinned expected output, then the [`GOLDEN`] table
/// of whole outcomes across scenarios and match modes, with no timing
/// assertions, so the hot path is exercised even where the release-only
/// guards are ignored. The constants come from the deterministic in-tree
/// `rand` stream; they are identical in debug and release builds.
#[test]
fn signature_smoke_deterministic() {
    let sc = mod_cell(Dataset::Doctors, 40, 0.05, 4242);
    assert_eq!(sc.source.num_tuples(), 40);
    assert_eq!(sc.target.num_tuples(), 40);
    let out = signature_match(
        &sc.source,
        &sc.target,
        &sc.catalog,
        &SignatureConfig::default(),
    );
    assert_eq!(out.best.pairs.len(), 33, "matched-pair count drifted");
    let score = out.best.score();
    assert!(
        (score - 0.7958333333333334).abs() < 1e-15,
        "score drifted: {score:.17}"
    );
    // On this scenario the greedy signature match recovers the gold score.
    let gold = sc.gold_score(&ScoreConfig::default());
    assert!(
        (score - gold).abs() < 1e-15,
        "gold {gold:.17} vs {score:.17}"
    );

    let rows = golden_rows();
    let rendered: Vec<String> = rows
        .iter()
        .map(|(label, sig, exh, digest)| format!("(\"{label}\", {sig}, {exh}, {digest:#018x}),"))
        .collect();
    let rendered = rendered.join("\n");
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "golden table drifted:\n{rendered}"
    );
    for (row, golden) in rows.iter().zip(GOLDEN) {
        assert_eq!(
            (row.0.as_str(), row.1, row.2, row.3),
            *golden,
            "golden row drifted; the whole table:\n{rendered}"
        );
    }
    // Both sides of the single-score shortcut (completion adds no pair vs.
    // completion adds pairs) are pinned.
    assert!(GOLDEN.iter().any(|row| row.2 == 0));
    assert!(GOLDEN.iter().any(|row| row.2 > 0));
}

/// Golden outcomes: `(label, sig_matches, exhaustive_matches, digest)` for
/// each datagen scenario × [`MatchMode`] constructor × complete/partial
/// mode. The digest is [`outcome_digest`]; it is the same at any pool
/// thread count.
const GOLDEN: &[(&str, usize, usize, u64)] = &[
    ("doct/one_to_one/complete", 32, 1, 0xc01160a0dff55780),
    ("doct/one_to_one/partial", 40, 0, 0x7e2e8dfeb520a41f),
    ("doct/general/complete", 32, 1, 0xc01160a0dff55780),
    ("doct/general/partial", 104, 0, 0xf848931110091879),
    ("doct/left_functional/complete", 32, 1, 0xc01160a0dff55780),
    ("doct/left_functional/partial", 40, 0, 0x8b380805251afac5),
    ("doct/bijective/complete", 32, 1, 0xc01160a0dff55780),
    ("doct/bijective/partial", 40, 0, 0x7e2e8dfeb520a41f),
    ("bike/one_to_one/complete", 21, 1, 0x92fe72d4b75aa60b),
    ("bike/one_to_one/partial", 40, 0, 0x6d6bdbc4b6438aa4),
    ("bike/general/complete", 21, 1, 0x92fe72d4b75aa60b),
    ("bike/general/partial", 661, 0, 0x0c98b5e44094b90b),
    ("bike/left_functional/complete", 21, 1, 0x92fe72d4b75aa60b),
    ("bike/left_functional/partial", 40, 0, 0x5284c2c0d275f0b1),
    ("bike/bijective/complete", 21, 1, 0x92fe72d4b75aa60b),
    ("bike/bijective/partial", 40, 0, 0x6d6bdbc4b6438aa4),
    ("redund/one_to_one/complete", 32, 1, 0x5b735f1f1a873a23),
    ("redund/one_to_one/partial", 39, 0, 0xb12dd3a20f678ded),
    ("redund/general/complete", 39, 2, 0xfdbfd8a2a5198e51),
    ("redund/general/partial", 123, 0, 0x20594867e5c482d1),
    ("redund/left_functional/complete", 35, 2, 0x2230c2e5bdc8d7c1),
    ("redund/left_functional/partial", 44, 0, 0xd681e323ba9e0a9f),
    ("redund/bijective/complete", 32, 1, 0x5b735f1f1a873a23),
    ("redund/bijective/partial", 39, 0, 0xb12dd3a20f678ded),
    ("conf/one_to_one/complete", 32, 0, 0x7764fdc2de68d4d1),
    ("conf/one_to_one/partial", 32, 0, 0x7764fdc2de68d4d1),
    ("conf/general/complete", 32, 0, 0x7764fdc2de68d4d1),
    ("conf/general/partial", 44, 0, 0xc3b83ac0f1c4e451),
    ("conf/left_functional/complete", 32, 0, 0x7764fdc2de68d4d1),
    ("conf/left_functional/partial", 32, 0, 0x892a65e0ed6f7ce5),
    ("conf/bijective/complete", 32, 0, 0x7764fdc2de68d4d1),
    ("conf/bijective/partial", 32, 0, 0x7764fdc2de68d4d1),
];

/// Runs every row of [`GOLDEN`] and returns what it observed.
fn golden_rows() -> Vec<(String, usize, usize, u64)> {
    let doct = mod_cell(Dataset::Doctors, 40, 0.05, 4242);
    let bike = mod_cell(Dataset::Bikeshare, 40, 0.05, 4242);
    let redund = add_random_and_redundant(Dataset::Doctors, 40, 0.05, 0.1, 0.1, 4242);
    let conf = conference_scenario(8, 3, 0.3, 4242);
    let scenarios: [(&str, &Catalog, &Instance, &Instance); 4] = [
        ("doct", &doct.catalog, &doct.source, &doct.target),
        ("bike", &bike.catalog, &bike.source, &bike.target),
        ("redund", &redund.catalog, &redund.source, &redund.target),
        ("conf", &conf.catalog, &conf.exchanged, &conf.ground),
    ];
    let modes = [
        ("one_to_one", MatchMode::one_to_one()),
        ("general", MatchMode::general()),
        ("left_functional", MatchMode::left_functional()),
        ("bijective", MatchMode::bijective()),
    ];
    let mut rows = Vec::new();
    for (name, catalog, left, right) in scenarios {
        for (mode_name, mode) in modes {
            for partial in [false, true] {
                let kind = if partial { "partial" } else { "complete" };
                let cfg = SignatureConfig {
                    mode,
                    partial,
                    ..Default::default()
                };
                let out = signature_match(left, right, catalog, &cfg);
                rows.push((
                    format!("{name}/{mode_name}/{kind}"),
                    out.stats.sig_matches,
                    out.stats.exhaustive_matches,
                    outcome_digest(&out, left, right),
                ));
            }
        }
    }
    rows
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard only meaningful in release builds"
)]
fn signature_5k_under_two_seconds() {
    let sc = mod_cell(Dataset::Bikeshare, 5_000, 0.05, 4242);
    let start = Instant::now();
    let out = signature_match(
        &sc.source,
        &sc.target,
        &sc.catalog,
        &SignatureConfig::default(),
    );
    let elapsed = start.elapsed();
    assert!(out.best.pairs.len() > 2_500);
    assert!(
        elapsed < Duration::from_secs(2),
        "signature on 5k rows took {elapsed:?}"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard only meaningful in release builds"
)]
fn gold_scoring_5k_under_two_seconds() {
    use instance_comparison::core::ScoreConfig;
    let sc = mod_cell(Dataset::GitHub, 5_000, 0.05, 4242);
    let start = Instant::now();
    let score = sc.gold_score(&ScoreConfig::default());
    let elapsed = start.elapsed();
    assert!(score > 0.2);
    assert!(
        elapsed < Duration::from_secs(2),
        "gold scoring on 5k rows took {elapsed:?}"
    );
}
