//! Property tests relating the three compatibility notions:
//! c-compatibility (necessary), pair compatibility (pair-local
//! unification), and `MatchState::check_pair` on an empty match — the last
//! two must agree exactly (two independent implementations of `t ≃ t'`).

use ic_core::{c_compatible, pair_compatible, CandidateIndex, MatchState};
use ic_model::{Catalog, Instance, RelId, Schema, Value};
use ic_testkit::{Gen, Runner};
use rand::RngExt;

#[derive(Debug, Clone, Copy)]
enum Cell {
    Const(u8),
    Null(u8),
}

fn gen_cell(g: &mut Gen) -> Cell {
    if g.rng().random_bool(0.5) {
        Cell::Const(g.rng().random_range(0..3u8))
    } else {
        Cell::Null(g.rng().random_range(0..3u8))
    }
}

fn gen_tuple3(g: &mut Gen) -> [Cell; 3] {
    [gen_cell(g), gen_cell(g), gen_cell(g)]
}

fn build(cat: &mut Catalog, desc: &[Cell]) -> Vec<Value> {
    let mut nulls: Vec<Option<Value>> = vec![None; 3];
    desc.iter()
        .map(|c| match *c {
            Cell::Const(k) => cat.konst(&format!("c{k}")),
            Cell::Null(k) => *nulls[k as usize].get_or_insert_with(|| cat.fresh_null()),
        })
        .collect()
}

/// pair_compatible (local union-find) agrees with check_pair (global
/// union-find over the universe) on fresh states.
#[test]
fn pair_compatible_equals_check_pair() {
    Runner::new("pair_compatible_equals_check_pair")
        .cases(256)
        .run(
            |g| (gen_tuple3(g), gen_tuple3(g)),
            |(l, r)| {
                let mut cat = Catalog::new(Schema::single("R", &["A", "B", "C"]));
                let rel = RelId(0);
                let lv = build(&mut cat, l);
                let rv = build(&mut cat, r);
                let mut left = Instance::new("I", &cat);
                let lt = left.insert(rel, lv);
                let mut right = Instance::new("J", &cat);
                let rt = right.insert(rel, rv);
                let local = pair_compatible(left.tuple(lt).unwrap(), right.tuple(rt).unwrap());
                let mut st = MatchState::new(&left, &right);
                let global = st.check_pair(lt, rt);
                assert_eq!(local, global);
                // Compatibility implies c-compatibility.
                if local {
                    assert!(c_compatible(
                        left.tuple(lt).unwrap(),
                        right.tuple(rt).unwrap()
                    ));
                }
            },
        );
}

/// The candidate index returns exactly the pair-compatible tuples.
#[test]
fn candidate_index_is_sound_and_complete() {
    Runner::new("candidate_index_is_sound_and_complete")
        .cases(256)
        .run(
            |g| {
                let l = gen_tuple3(g);
                let mut rs = g.vec_of(5, gen_tuple3);
                if rs.is_empty() {
                    rs.push(gen_tuple3(g)); // the proptest bound was 1..6
                }
                (l, rs)
            },
            |(l, rs)| {
                let mut cat = Catalog::new(Schema::single("R", &["A", "B", "C"]));
                let rel = RelId(0);
                let lv = build(&mut cat, l);
                let mut left = Instance::new("I", &cat);
                let lt = left.insert(rel, lv);
                let mut right = Instance::new("J", &cat);
                for r in rs {
                    let rv = build(&mut cat, r);
                    right.insert(rel, rv);
                }
                let index = CandidateIndex::build(right.tuples(rel));
                let candidates = index.compatible_candidates(&right, left.tuple(lt).unwrap());
                for t in right.tuples(rel) {
                    let expected = pair_compatible(left.tuple(lt).unwrap(), t);
                    assert_eq!(
                        candidates.contains(&t.id()),
                        expected,
                        "candidate set wrong for {:?}",
                        t.id()
                    );
                }
            },
        );
}
