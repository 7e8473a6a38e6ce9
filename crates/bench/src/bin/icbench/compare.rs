//! `icbench compare <base.jsonl> <new.jsonl>`: run agreement and
//! regression verdicts between two sets of `icbench run` results.

use crate::metrics::{end_to_end, Better, END_TO_END};
use crate::stats::{median, quartiles, relative_spread};
use ic_serve::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How the new set compares with the base set on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the base set's own spread (or every new run
    /// beats every base run).
    Better,
    /// Within the bound, and not clearly better.
    Same,
    /// Worse by more than the bound (and, when the runs spread wider
    /// than the bound, every new run worse than every base run): a
    /// regression.
    Worse,
    /// The run-to-run spread exceeds the bound and the sets overlap, so
    /// they cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when better).
fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    crate::stats::ratio(delta, base.abs())
}

/// The verdict on one metric from the values of each run of each set.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let change = worse_by(median(base), median(new), better);
    let base_spread = relative_spread(base);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // Whether every run of `a` is better than every run of `b`.
    let every_run_beats = |a: &[f64], b: &[f64]| match better {
        Better::Lower => max(a) < min(b),
        Better::Higher => min(a) > max(b),
    };
    if base_spread.max(relative_spread(new)) > bound {
        // Noisy sets still separate when they do not overlap at all.
        if every_run_beats(new, base) {
            Verdict::Better
        } else if every_run_beats(base, new) && change > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Worse
    } else if -change > base_spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Parses a results file: one `icbench run` document per line.
pub fn read_runs(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(n, l)| parse(l).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

/// `(workload, metric) → value of each run` for the end-to-end metrics.
pub fn collect(runs: &[Json]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        for w in run.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(name) = w.get("name").and_then(Json::as_str) else {
                continue;
            };
            for def in &END_TO_END {
                let value = w
                    .get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64);
                if let Some(v) = value {
                    out.entry((name.to_string(), def.name.to_string()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    out
}

/// The comparison table, and whether any metric regressed.
pub fn report(base: &[Json], new: &[Json]) -> (String, bool) {
    let (base, new) = (collect(base), collect(new));
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<17} {:<12} {:>5} {:>32} {:>32} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "base median [q1, q3] (n)",
        "new median [q1, q3] (n)",
        "change",
        "spread",
        "bound"
    );
    let mut regressed = false;
    for (key, b) in &base {
        let Some(n) = new.get(key) else { continue };
        let def = end_to_end(&key.1).expect("collected from the catalogue");
        let v = verdict(b, n, def.better, def.bound);
        regressed |= v == Verdict::Worse;
        let cell = |vals: &[f64]| {
            let (q1, q3) = quartiles(vals);
            format!(
                "{:.4} [{:.4}, {:.4}] ({})",
                median(vals),
                q1,
                q3,
                vals.len()
            )
        };
        let _ = writeln!(
            table,
            "{:<17} {:<12} {:>5} {:>32} {:>32} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
            key.0,
            key.1,
            def.unit,
            cell(b),
            cell(n),
            100.0 * worse_by(median(b), median(n), def.better),
            100.0 * relative_spread(b).max(relative_spread(n)),
            100.0 * def.bound,
            v.as_str()
        );
    }
    let _ = writeln!(
        table,
        "change: positive = worse. spread: larger quartile distance ÷ median of the two sets."
    );
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Latency 20% up against a 10% bound with tight runs: worse.
        let slow: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.10), Verdict::Worse);
        // The same numbers as throughput are an improvement.
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.10), Verdict::Better);
        // Within the bound and within the base spread: same.
        let near: Vec<f64> = base.iter().map(|v| v * 1.005).collect();
        assert_eq!(verdict(&base, &near, Better::Lower, 0.10), Verdict::Same);
        // Runs spread wider than the bound: unresolved, whatever the medians.
        let wild = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&base, &wild, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&wild, &base, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // …unless every new run beats every base run,
        let fast = [40.0, 50.0, 45.0, 42.0, 48.0];
        assert_eq!(verdict(&wild, &fast, Better::Lower, 0.10), Verdict::Better);
        // or every new run is worse than every base run, by more than the
        // bound at the median: a large slowdown on noisy runs is a regression.
        let doubled: Vec<f64> = wild.iter().map(|v| v * 2.0 + 100.0).collect();
        assert_eq!(
            verdict(&wild, &doubled, Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(verdict(&fast, &wild, Better::Lower, 0.10), Verdict::Worse);
        // Disjoint but within the bound at the median stays unresolved.
        let slight = [61.0, 62.0, 63.0, 64.0, 65.0];
        let wide = [20.0, 40.0, 58.0, 59.0, 60.0];
        assert_eq!(
            verdict(&wide, &slight, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    fn run_doc(rps: f64) -> Json {
        let metric = |v: f64, unit: &str| {
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::Str(unit.into())),
            ])
        };
        Json::obj(vec![
            ("tool", Json::Str("icbench".into())),
            (
                "workloads",
                Json::Arr(vec![Json::obj(vec![
                    ("name", Json::Str("compare_hot".into())),
                    (
                        "end_to_end",
                        Json::obj(vec![
                            ("read_rps", metric(rps, "1/s")),
                            ("setup_s", metric(0.123_456_789, "s")),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn result_json_round_trips_through_compare() {
        let text: String = [1000.0, 1010.0, 990.0]
            .iter()
            .map(|&r| run_doc(r).encode() + "\n")
            .collect();
        let runs = read_runs(&text).unwrap();
        let values = collect(&runs);
        let key = |m: &str| ("compare_hot".to_string(), m.to_string());
        assert_eq!(values[&key("read_rps")], vec![1000.0, 1010.0, 990.0]);
        // Every digit survives the round trip.
        assert_eq!(values[&key("setup_s")], vec![0.123_456_789; 3]);
        let (table, regressed) = report(&runs, &runs);
        assert!(!regressed);
        assert!(table.contains("compare_hot") && table.contains("same"));

        let slower = read_runs(&run_doc(500.0).encode()).unwrap();
        let (table, regressed) = report(&runs, &slower);
        assert!(regressed, "{table}");
        assert!(read_runs("{not json").is_err());
    }
}
