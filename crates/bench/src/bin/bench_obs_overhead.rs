//! Cost of the `ic-obs` instrumentation when **no observation is active** —
//! the "free when off" contract of the observability layer.
//!
//! The hot paths of `signature_match` are compiled with span/counter calls
//! that collapse to a thread-local boolean load when no sink is installed.
//! This binary measures that residual cost on the `bench_signature`
//! workload (a `modCell` Doctors pair) and **asserts it stays under 2%**.
//!
//! Methodology: the uninstrumented and instrumented arms are timed
//! *interleaved* (A B A B …) and compared on their **minimum** sample —
//! the pair of estimators least sensitive to one-sided scheduler noise.
//! A flaky exceedance is retried up to three times; only a reproducible
//! regression fails the run.
//!
//! When `IC_OBS_JSONL=<path>` is set, one fully observed comparison is also
//! executed with a [`JsonlSink`](ic_obs::JsonlSink) writing to `<path>`, so
//! CI leaves a machine-readable span-tree/metrics artifact behind.
//!
//! Run: `cargo run -p ic-bench --release --bin bench_obs_overhead`

use ic_bench::harness::Suite;
use ic_core::{signature_match, Comparator, SignatureConfig};
use ic_datagen::{mod_cell, Dataset};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interleaved samples per arm within one attempt.
const SAMPLES: u32 = 9;
/// Warmup iterations (discarded) before sampling.
const WARMUP: u32 = 2;
/// Attempts before a threshold exceedance is considered reproducible.
const MAX_ATTEMPTS: u32 = 3;
/// Ceiling on the no-sink overhead, percent.
const MAX_PCT: f64 = 2.0;

fn time_once(f: &mut impl FnMut()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// One attempt: interleave the two arms and return their minimum samples.
fn min_interleaved(base: &mut impl FnMut(), instr: &mut impl FnMut()) -> (Duration, Duration) {
    for _ in 0..WARMUP {
        base();
        instr();
    }
    let mut base_min = Duration::MAX;
    let mut instr_min = Duration::MAX;
    for _ in 0..SAMPLES {
        base_min = base_min.min(time_once(base));
        instr_min = instr_min.min(time_once(instr));
    }
    (base_min, instr_min)
}

fn main() {
    let sc = mod_cell(Dataset::Doctors, 800, 0.05, 42);
    let cfg = SignatureConfig::default();

    // Arm A: plain call — instrumentation present but inert (`active()`
    // is false). This is exactly what every non-observing caller pays.
    let mut base = || {
        black_box(signature_match(&sc.source, &sc.target, &sc.catalog, &cfg));
    };
    // Arm B: identical call under an installed no-op sink — spans and
    // counters are recorded into the thread-local context and discarded.
    // The gap between A and B bounds the cost of the instrumentation from
    // above: if even *recording* everything stays under the budget, the
    // inert boolean-check path of arm A certainly does.
    let noop_sink: Arc<dyn ic_obs::Sink> = Arc::new(ic_obs::NoopSink);
    let mut instrumented = || {
        let _obs = ic_obs::observe("bench", Arc::clone(&noop_sink));
        black_box(signature_match(&sc.source, &sc.target, &sc.catalog, &cfg));
    };

    let mut suite = Suite::new("BENCH_obs_overhead");
    suite.set_meta("workload", "signature/doctors/800/modcell5%");
    suite.set_meta("max_pct", &format!("{MAX_PCT}"));

    let mut last = (Duration::ZERO, Duration::ZERO, f64::INFINITY);
    for attempt in 1..=MAX_ATTEMPTS {
        let (base_min, instr_min) = min_interleaved(&mut base, &mut instrumented);
        let pct =
            100.0 * (instr_min.as_secs_f64() - base_min.as_secs_f64()) / base_min.as_secs_f64();
        println!(
            "attempt {attempt}: uninstalled {base_min:?}, noop-sink {instr_min:?}, \
             overhead {pct:.2}%"
        );
        last = (base_min, instr_min, pct);
        if pct <= MAX_PCT {
            break;
        }
    }
    let (base_min, instr_min, pct) = last;
    suite.set_meta("uninstalled_min_ns", &base_min.as_nanos().to_string());
    suite.set_meta("noop_sink_min_ns", &instr_min.as_nanos().to_string());
    suite.set_meta("overhead_pct", &format!("{pct:.2}"));

    // Optional artifact: one fully observed run streamed to a JSONL file.
    if let Ok(path) = std::env::var("IC_OBS_JSONL") {
        let sink = Arc::new(ic_obs::JsonlSink::create(&path).expect("create JSONL sink"));
        let cmp = Comparator::new(&sc.catalog)
            .observer("bench_obs_overhead", sink)
            .build()
            .expect("default config is valid");
        cmp.compare(&sc.source, &sc.target).expect("schemas match");
        suite.set_meta("jsonl_artifact", &path);
        println!("wrote observed report to {path}");
    }

    suite.finish();

    assert!(
        pct <= MAX_PCT,
        "no-op observability overhead {pct:.2}% exceeds {MAX_PCT}% \
         (reproduced over {MAX_ATTEMPTS} interleaved attempts)"
    );
    println!("overhead {pct:.2}% <= {MAX_PCT}%: ok");
}
