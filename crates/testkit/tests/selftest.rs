//! Self-tests of the property runner: determinism, discard handling, and —
//! the load-bearing one — that a failure's printed seed, re-injected via
//! the environment, reproduces the identical shrunk counterexample.

use ic_testkit::{assume, Gen, Runner, SEED_ENV};
use rand::RngExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// All tests in this binary share the process environment (the runner
/// reads `IC_TESTKIT_SEED`), so serialize them.
fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn gen_vec(g: &mut Gen) -> Vec<u8> {
    g.vec_of(12, |g| g.rng().random_range(0..10u8))
}

fn extract_seed(panic_msg: &str) -> u64 {
    let marker = format!("{SEED_ENV}=0x");
    let at = panic_msg.find(&marker).expect("no seed in panic message");
    let hex: String = panic_msg[at + marker.len()..]
        .chars()
        .take_while(|c| c.is_ascii_hexdigit())
        .collect();
    u64::from_str_radix(&hex, 16).expect("unparsable seed in panic message")
}

#[test]
fn passing_property_runs_all_cases() {
    let _guard = env_lock();
    let count = std::cell::Cell::new(0u32);
    Runner::new("selftest_pass")
        .cases(40)
        .run(gen_vec, |_| count.set(count.get() + 1));
    assert_eq!(count.get(), 40, "every requested case should execute");
}

#[test]
fn failing_property_reports_seed_and_env_reproduces_counterexample() {
    let _guard = env_lock();
    let trace: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
    let run = |t: &Mutex<Vec<Vec<u8>>>| {
        catch_unwind(AssertUnwindSafe(|| {
            Runner::new("selftest_fail")
                .cases(64)
                .max_size(12)
                .run(gen_vec, |v| {
                    t.lock().unwrap().push(v.clone());
                    assert!(v.len() < 3, "vector too long: {}", v.len());
                })
        }))
    };

    // First run: must fail and advertise a reproduction seed.
    let err = run(&trace).expect_err("property should fail");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic payload should be a string")
        .clone();
    assert!(msg.contains("selftest_fail"), "message: {msg}");
    let seed = extract_seed(&msg);
    // The last checked value is the post-shrink counterexample: minimal
    // (binary search over size cannot go lower) means exactly length 3.
    let original = trace.lock().unwrap().last().unwrap().clone();
    assert_eq!(original.len(), 3, "shrunk counterexample should be minimal");

    // Second run, seed injected: same failure, same counterexample.
    trace.lock().unwrap().clear();
    std::env::set_var(SEED_ENV, format!("{seed:#x}"));
    let err2 = run(&trace);
    std::env::remove_var(SEED_ENV);
    err2.expect_err("injected seed should reproduce the failure");
    let reproduced = trace.lock().unwrap().last().unwrap().clone();
    assert_eq!(
        original, reproduced,
        "env-injected seed must reproduce the identical counterexample"
    );
}

#[test]
fn failure_seed_is_deterministic_across_runs() {
    let _guard = env_lock();
    let seed_of = || {
        let err = catch_unwind(AssertUnwindSafe(|| {
            Runner::new("selftest_deterministic")
                .cases(32)
                .run(gen_vec, |v| assert!(v.iter().sum::<u8>() % 7 != 3))
        }))
        .expect_err("property should fail eventually");
        extract_seed(err.downcast_ref::<String>().unwrap())
    };
    assert_eq!(seed_of(), seed_of());
}

#[test]
fn assume_discards_do_not_fail_the_property() {
    let _guard = env_lock();
    Runner::new("selftest_assume").cases(32).run(gen_vec, |v| {
        assume(!v.is_empty());
        assert!(!v.is_empty());
    });
}

#[test]
fn impossible_assume_panics_with_discard_diagnosis() {
    let _guard = env_lock();
    let err = catch_unwind(AssertUnwindSafe(|| {
        Runner::new("selftest_starved")
            .cases(8)
            .run(gen_vec, |_| assume(false))
    }))
    .expect_err("starved runner should panic");
    let msg = err.downcast_ref::<String>().unwrap();
    assert!(msg.contains("discarded too many cases"), "message: {msg}");
}

#[test]
fn shrinking_respects_generator_size() {
    let _guard = env_lock();
    // Size 0 forces empty vectors, so a property failing on any non-empty
    // vector must shrink to exactly length 1.
    let trace: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let err = catch_unwind(AssertUnwindSafe(|| {
        Runner::new("selftest_shrink")
            .cases(64)
            .max_size(16)
            .run(gen_vec, |v| {
                trace.lock().unwrap().push(v.len());
                assert!(v.is_empty(), "non-empty");
            })
    }));
    err.expect_err("property should fail");
    assert_eq!(*trace.lock().unwrap().last().unwrap(), 1);
}
