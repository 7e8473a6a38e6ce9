//! End-to-end integration tests spanning the crates: CSV import →
//! comparison; chase → core → similarity; repair → similarity; versioning →
//! similarity.

use instance_comparison::cleaning::{
    bus_cleaning_dataset, inject_errors, instance_f1, repair_f1, RepairSystem,
};
use instance_comparison::core::{
    exact_match, is_homomorphic, signature_match, symmetric_difference_similarity, ExactConfig,
    MatchMode, Side, SignatureConfig,
};
use instance_comparison::datagen::{mod_cell, Dataset};
use instance_comparison::exchange::{core_of, doctors_scenario};
use instance_comparison::model::csv::{read_csv_into, write_csv, CsvOptions};
use instance_comparison::model::{Catalog, Instance, Schema};
use instance_comparison::versioning::{compare_versions, Variant, Version};

const EPS: f64 = 1e-9;

#[test]
fn csv_import_compare_export() {
    // Two CSV files with labeled nulls and SQL-style empty cells, imported
    // into one catalog, compared, and re-exported.
    let mut cat = Catalog::new(Schema::single("Conf", &["Name", "Year", "Org"]));
    let rel = cat.schema().rel("Conf").unwrap();
    let opts = CsvOptions::default();

    let left_text = "Name,Year,Org\nVLDB,1975,VLDB End.\nVLDB,1976,\nSIGMOD,1975,ACM\n";
    let right_text = "Name,Year,Org\nSIGMOD,1975,ACM\nVLDB,_N:y,VLDB End.\n,1976,IEEE\n";
    let mut left = Instance::new("I", &cat);
    read_csv_into(left_text, &mut cat, &mut left, rel, &opts).unwrap();
    let mut right = Instance::new("I1", &cat);
    read_csv_into(right_text, &mut cat, &mut right, rel, &opts).unwrap();

    assert_eq!(left.num_tuples(), 3);
    assert_eq!(right.num_tuples(), 3);
    assert!(!left.is_ground() && !right.is_ground());

    let out = signature_match(&left, &right, &cat, &SignatureConfig::default());
    // SIGMOD row matches exactly; VLDB rows pair through the nulls.
    assert!(out.best.pairs.len() >= 2);
    assert!(out.best.score() > 0.5 && out.best.score() < 1.0);

    // The measure sees more than the symmetric difference does.
    let sym = symmetric_difference_similarity(&left, &right);
    assert!(out.best.score() > sym);

    // Export round-trips.
    let exported = write_csv(&left, &cat, rel, &opts);
    assert!(exported.starts_with("Name,Year,Org\n"));
    assert!(exported.contains("VLDB,1975,VLDB End."));
}

#[test]
fn exchange_pipeline_chase_core_similarity() {
    let sc = doctors_scenario(120, 0.25, 77);
    // The core is reachable from the naive solution by folding.
    let folded = core_of(&sc.user2, &sc.catalog);
    assert_eq!(folded.num_tuples(), sc.gold.num_tuples());
    assert!(is_homomorphic(&folded, &sc.gold) && is_homomorphic(&sc.gold, &folded));

    // Similarity orders the solutions as the paper's Table 6 does.
    let cfg = SignatureConfig {
        mode: MatchMode::left_functional(),
        ..Default::default()
    };
    let s_w = signature_match(&sc.wrong, &sc.gold, &sc.catalog, &cfg)
        .best
        .score();
    let s_u1 = signature_match(&sc.user1, &sc.gold, &sc.catalog, &cfg)
        .best
        .score();
    let s_u2 = signature_match(&sc.user2, &sc.gold, &sc.catalog, &cfg)
        .best
        .score();
    assert!(s_w < 0.1);
    assert!(s_u1 > 0.5);
    assert!(s_u2 > s_u1);
}

#[test]
fn cleaning_pipeline_repair_similarity() {
    let (mut cat, clean, fds) = bus_cleaning_dataset(800, 123);
    let dirty = inject_errors(&clean, &fds, &mut cat, 0.05, 123);
    let sig_cfg = SignatureConfig::default();

    let mut sig_scores = Vec::new();
    for (name, sys) in RepairSystem::all() {
        let mut c = cat.clone();
        let repaired = sys.repair(&dirty.instance, &fds, &mut c, 123);
        let f1 = repair_f1(&clean, &dirty.instance, &repaired, &dirty.errors);
        let f1i = instance_f1(&clean, &repaired);
        let sig = signature_match(&repaired, &clean, &c, &sig_cfg)
            .best
            .score();
        assert!(f1.f1 <= 1.0 && f1i.f1 <= 1.0);
        sig_scores.push((name, f1.f1, sig));
    }
    // Majority-based repairs beat not repairing, by the similarity
    // measure; Sampling may rewrite whole groups wrongly and fall below the
    // unrepaired score (it still produces a *consistent* instance).
    let unrepaired = signature_match(&dirty.instance, &clean, &cat, &sig_cfg)
        .best
        .score();
    for (name, _, sig) in &sig_scores {
        if *name == "Sampling" {
            assert!(*sig > 0.6, "{name}: similarity collapsed to {sig}");
        } else {
            assert!(
                *sig >= unrepaired - 0.02,
                "{name}: repaired {sig} << unrepaired {unrepaired}"
            );
        }
    }
}

#[test]
fn versioning_pipeline_all_variants() {
    let (mut cat, inst) = Dataset::Iris.generate(120, 55);
    let rel = cat.schema().rel("Iris").unwrap();
    let orig = Version::plain(inst);
    for (variant, label) in Variant::ALL {
        let v = variant.apply(&orig.instance, &mut cat, rel, 0.175, 1, 55);
        let c = compare_versions(&orig, &v, &cat, rel);
        assert_eq!(
            c.signature.matches, c.modified_tuples,
            "{label}: every surviving tuple must match"
        );
        assert!(c.signature_score > 0.7, "{label}: {}", c.signature_score);
    }
}

#[test]
fn scenario_pipeline_exact_agrees_with_signature() {
    let sc = mod_cell(Dataset::Iris, 50, 0.05, 321);
    let e = exact_match(
        &sc.source,
        &sc.target,
        &sc.catalog,
        &ExactConfig {
            budget: Some(std::time::Duration::from_secs(20)),
            ..Default::default()
        },
    );
    let s = signature_match(
        &sc.source,
        &sc.target,
        &sc.catalog,
        &SignatureConfig::default(),
    );
    assert!(e.best.score() + EPS >= s.best.score());
    assert!(e.best.score() - s.best.score() < 0.01);
}

#[test]
fn multi_relation_end_to_end() {
    // Fig. 3/4 of the paper: Conference + Paper with surrogate-key nulls
    // spanning relations.
    let mut schema = Schema::new();
    schema.add_relation(instance_comparison::model::RelationSchema::new(
        "Conference",
        &["Id", "Name", "Year", "Place", "Org"],
    ));
    schema.add_relation(instance_comparison::model::RelationSchema::new(
        "Paper",
        &["Authors", "Title", "ConfId"],
    ));
    let mut cat = Catalog::new(schema);
    let conf = cat.schema().rel("Conference").unwrap();
    let paper = cat.schema().rel("Paper").unwrap();

    // Ground instance I_g.
    let (one, two, three) = (cat.konst("1"), cat.konst("2"), cat.konst("3"));
    let vldb = cat.konst("VLDB");
    let sigmod = cat.konst("SIGMOD");
    let (y75, y76) = (cat.konst("1975"), cat.konst("1976"));
    let (fra, bru, sj) = (
        cat.konst("Framingham"),
        cat.konst("Brussels"),
        cat.konst("San Jose"),
    );
    let (end, acm) = (cat.konst("VLDB End."), cat.konst("ACM"));
    let (zloof, chen, rapp) = (
        cat.konst("Zloof"),
        cat.konst("Chen"),
        cat.konst("Rappaport"),
    );
    let (qbe, er, fsd) = (cat.konst("QBE"), cat.konst("ER"), cat.konst("FSD"));

    let mut ground = Instance::new("Ig", &cat);
    ground.insert(conf, vec![one, vldb, y75, fra, end]);
    ground.insert(conf, vec![two, vldb, y76, bru, end]);
    ground.insert(conf, vec![three, sigmod, y75, sj, acm]);
    ground.insert(paper, vec![zloof, qbe, one]);
    ground.insert(paper, vec![chen, er, one]);
    ground.insert(paper, vec![rapp, fsd, three]);

    // Exchange-style instance I_n: surrogate keys are labeled nulls.
    let (k1, k2, place) = (cat.fresh_null(), cat.fresh_null(), cat.fresh_null());
    let mut exchanged = Instance::new("In", &cat);
    exchanged.insert(conf, vec![k1, vldb, y75, place, end]);
    exchanged.insert(conf, vec![k2, vldb, y76, bru, end]);
    exchanged.insert(conf, vec![three, sigmod, y75, sj, acm]);
    exchanged.insert(paper, vec![zloof, qbe, k1]);
    exchanged.insert(paper, vec![chen, er, k1]);
    exchanged.insert(paper, vec![rapp, fsd, three]);

    // The exchanged instance is homomorphic to the ground one (k1→1 etc.).
    assert!(is_homomorphic(&exchanged, &ground));

    // And highly similar, with all six tuples matched consistently.
    let out = signature_match(&exchanged, &ground, &cat, &SignatureConfig::default());
    assert_eq!(out.best.pairs.len(), 6);
    assert!(out.best.score() > 0.85, "score {}", out.best.score());
    // k1 must map to "1" consistently across Conference and Paper.
    let h_l = (out.best.replay(&exchanged, &ground)).value_mapping(Side::Left);
    let k1_img = h_l.get(&k1).copied().unwrap();
    assert_eq!(
        k1_img,
        instance_comparison::core::Mapped::Const(one.as_const().unwrap())
    );
}

#[test]
fn egd_chase_vs_repair_philosophies() {
    // The same FD conflict: the egd chase *fails* on constant conflicts,
    // while repair systems *mark* them with labeled nulls — and the
    // similarity measure credits those marks.
    use instance_comparison::cleaning::{Fd, RepairSystem};
    use instance_comparison::exchange::{chase_egds, fd_egd};

    let mut cat = Catalog::new(Schema::single("Conf", &["Name", "Org"]));
    let rel = cat.schema().rel("Conf").unwrap();
    let vldb = cat.konst("VLDB");
    let a = cat.konst("VLDB End.");
    let b = cat.konst("VLDB Endowment");
    let mut dirty = Instance::new("dirty", &cat);
    dirty.insert(rel, vec![vldb, a]);
    dirty.insert(rel, vec![vldb, b]);

    // Data-exchange semantics: unsatisfiable.
    let egd = fd_egd(&cat, "Conf", &["Name"], "Org");
    assert!(chase_egds(&dirty, &[egd], &cat).is_err());

    // Repair semantics: mark the conflict (tie → labeled null).
    let fd = Fd::new(&cat, "Conf", &["Name"], "Org");
    let repaired = RepairSystem::Llunatic.repair(&dirty, &[fd], &mut cat, 1);
    assert_eq!(repaired.num_null_cells(), 2);
    // The marked repair is highly similar to either ground resolution.
    let mut resolved = Instance::new("gold", &cat);
    resolved.insert(rel, vec![vldb, a]);
    resolved.insert(rel, vec![vldb, a]);
    let s = signature_match(&repaired, &resolved, &cat, &SignatureConfig::default());
    assert!(s.best.score() > 0.7, "score {}", s.best.score());
    assert_eq!(s.best.pairs.len(), 2);
}
