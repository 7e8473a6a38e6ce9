//! `icbench` — the repository's end-to-end and per-layer benchmark of the
//! serving stack: signature `compare`, top-k `search` and `patch` beside
//! `search`, sent over loopback to `ic-serve` running on a durable
//! `ic-store` catalog. See README.md in this directory for the workloads,
//! the metrics, and how to read the traced table.
//!
//! ```text
//! icbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! icbench run --seed <n> [--out <results.jsonl>]
//! icbench compare <base.jsonl> <new.jsonl>
//! ```
//!
//! The first form measures one workload and prints one JSON line with the
//! end-to-end metrics (`--trace 0`) or the per-layer split (`--trace 1`).
//! `run` measures every workload untraced and then traced, prints both
//! tables, and appends one result document per run to `--out`. `compare`
//! checks two such result sets against each metric's bound.

mod child;
mod compare;
mod metrics;
mod plan;
mod stats;
mod trace;

use child::{ChildConfig, WARMUP};
use ic_serve::json::{parse, Json};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use plan::{install_data_dir, prepare, stream_fingerprint, Workload};
use std::collections::BTreeMap;
use std::io::{Read as _, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// `run`'s untraced window per workload, as `run_seconds` in
/// `BENCHMARK.json`. On the shared host, spreads shrink as the window
/// grows to about half a minute, then flatten against its drift over
/// minutes (README.md, "Measured spread").
const RUN_SECONDS: Duration = Duration::from_secs(25);
/// `run`'s traced window per workload.
const RUN_TRACED_SECONDS: Duration = Duration::from_secs(5);
/// Set-up samples per pass, each in its own process; `setup_s` is their
/// median.
const SETUP_REPS: usize = 7;
/// How long a child may run beyond its warm-up and window (set-up
/// included) before the parent kills it.
const CHILD_SLACK: Duration = Duration::from_secs(60);

const USAGE: &str = "usage:
  icbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  icbench run --seed <n> [--out <file>]
  icbench compare <base.jsonl> <new.jsonl>
workloads: compare_hot compare_deadline search_static search_patch";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child_main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        _ => bench_main(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("icbench: {e}");
            ExitCode::from(2)
        }
    }
}

type Options = BTreeMap<String, String>;

/// `--key value` options.
fn options(args: &[String]) -> Result<Options, String> {
    let mut out = Options::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}\n{USAGE}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("{key} needs a value\n{USAGE}"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn required<T: std::str::FromStr>(opts: &Options, key: &str) -> Result<T, String> {
    let raw = opts
        .get(key)
        .ok_or_else(|| format!("missing --{key}\n{USAGE}"))?;
    raw.parse()
        .map_err(|_| format!("--{key}: cannot parse {raw:?}"))
}

fn workload(opts: &Options) -> Result<Workload, String> {
    let name: String = required(opts, "workload")?;
    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))
}

fn seconds(opts: &Options) -> Result<Duration, String> {
    let raw: f64 = required(opts, "seconds")?;
    if raw.is_finite() && raw > 0.0 && raw <= 600.0 {
        Ok(Duration::from_secs_f64(raw))
    } else {
        Err("--seconds must be in (0, 600]".into())
    }
}

fn flag(opts: &Options, key: &str) -> Result<bool, String> {
    match required::<u8>(opts, key)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("--{key} must be 0 or 1")),
    }
}

/// The hidden entry point of set-up and measured child processes.
fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args)?;
    let cfg = ChildConfig {
        workload: workload(&opts)?,
        seed: required(&opts, "seed")?,
        dir: PathBuf::from(required::<String>(&opts, "dir")?),
        seconds: seconds(&opts)?,
        traced: flag(&opts, "traced")?,
    };
    let out = if flag(&opts, "setup-only")? {
        child::setup_only(&cfg)?
    } else {
        child::run(&cfg)?
    };
    println!("{}", out.encode());
    Ok(ExitCode::SUCCESS)
}

/// One prepared workload in its own work directory, removed on drop.
struct Prepared {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    snapshot: Vec<u8>,
    fingerprints: Json,
    prepare_s: f64,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Builds the inputs of `workload` for `seed` under a fresh work
/// directory next to the executable (inside the build directory).
fn prepare_workload(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("icbench-work")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let started = Instant::now();
    let prepared = prepare(workload, seed)?;
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(dir.join("plan.txt"), prepared.plan.encode())
        .map_err(|e| format!("writing the plan: {e}"))?;
    let stream = |conn| Json::Str(stream_fingerprint(workload, seed, conn, &prepared.plan));
    let fingerprints = Json::obj(vec![
        ("snapshot", Json::Str(plan::fingerprint(&prepared.snapshot))),
        ("conn0", stream(0)),
        ("conn1", stream(1)),
    ]);
    Ok(Prepared {
        workload,
        seed,
        dir,
        snapshot: prepared.snapshot,
        fingerprints,
        prepare_s: started.elapsed().as_secs_f64(),
    })
}

/// Runs one child process to completion and parses its last stdout line.
fn spawn_child(
    p: &Prepared,
    window: Duration,
    traced: bool,
    setup_only: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let bit = |b: bool| if b { "1" } else { "0" };
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", p.workload.name()])
        .args(["--seed", &p.seed.to_string()])
        .args(["--dir", &p.dir.display().to_string()])
        .args(["--seconds", &window.as_secs_f64().to_string()])
        .args(["--traced", bit(traced)])
        .args(["--setup-only", bit(setup_only)])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting a child process: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let budget = if setup_only {
        CHILD_SLACK
    } else {
        WARMUP + window + CHILD_SLACK
    };
    let limit = Instant::now() + budget;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < limit => std::thread::sleep(Duration::from_millis(20)),
            outcome => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(match outcome {
                    Err(e) => format!("waiting for a child process: {e}"),
                    _ => format!("a {} child process timed out", p.workload.name()),
                });
            }
        }
    };
    let text = reader
        .join()
        .expect("stdout reader panicked")
        .map_err(|e| format!("reading a child process: {e}"))?;
    if !status.success() {
        return Err(format!(
            "a {} child process failed ({status})",
            p.workload.name()
        ));
    }
    parse(text.lines().last().unwrap_or_default()).map_err(|e| format!("child process output: {e}"))
}

fn num(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// A number map member of a child's result.
fn numbers(obj: &Json, key: &str) -> BTreeMap<String, f64> {
    match obj.get(key) {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// One pass: its set-up-only children and its measured child, merged.
struct Pass {
    /// Every metric the pass measured, set-up medians included.
    values: BTreeMap<String, f64>,
    /// Sample counts behind the values.
    samples: BTreeMap<String, f64>,
    attempted: f64,
    failed: f64,
    mismatches: f64,
    problems: Vec<String>,
    /// Wall time of each phase, in seconds.
    phases: BTreeMap<String, f64>,
}

impl Pass {
    fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn count(&self, name: &str) -> f64 {
        self.samples.get(name).copied().unwrap_or(0.0)
    }
}

/// One pass on a freshly installed data directory: `SETUP_REPS - 1`
/// set-up-only children, then the measured child (whose own set-up is
/// the last sample).
fn pass(p: &Prepared, window: Duration, traced: bool) -> Result<Pass, String> {
    install_data_dir(&p.dir.join("data"), &p.snapshot)?;
    let started = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let out = spawn_child(p, window, traced, true)?;
        setups.push(numbers(&out, "setup"));
    }
    let setup_children = started.elapsed().as_secs_f64();
    let out = spawn_child(p, window, traced, false)?;
    setups.push(numbers(&out, "setup"));

    let mut values = numbers(&out, "values");
    let setup_median = |key: &str| {
        let v: Vec<f64> = setups.iter().filter_map(|s| s.get(key).copied()).collect();
        (!v.is_empty()).then(|| stats::median(&v))
    };
    for (metric, key) in [
        ("setup_s", "total"),
        ("store.open_s", "open"),
        ("serve.first_request_s", "first_request"),
        ("store.snapshot_install_s", "install"),
    ] {
        if let Some(m) = setup_median(key) {
            values.insert(metric.to_string(), m);
        }
    }
    let mut samples = numbers(&out, "samples");
    samples.insert("setups".into(), setups.len() as f64);
    let mut phases = numbers(&out, "phases");
    phases.insert("setup_children_s".into(), setup_children);
    Ok(Pass {
        values,
        samples,
        attempted: num(&out, "attempted"),
        failed: num(&out, "failed"),
        mismatches: num(&out, "mismatches"),
        problems: out
            .get("problems")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|j| j.as_str().map(String::from))
            .collect(),
        phases,
    })
}

/// `{name: {"value", "unit"}}` for `defs`. A value the pass did not
/// report is a bug, returned as an error.
fn metric_values(defs: &[MetricDef], value: impl Fn(&str) -> Option<f64>) -> Result<Json, String> {
    let members = defs
        .iter()
        .map(|d| {
            let v = value(d.name).ok_or_else(|| format!("the pass did not report {}", d.name))?;
            let metric = Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::Str(d.unit.into())),
            ]);
            Ok((d.name.to_string(), metric))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::Obj(members))
}

fn end_to_end_values(untraced: &Pass) -> Result<Json, String> {
    metric_values(&END_TO_END, |name| untraced.values.get(name).copied())
}

/// Per-layer metrics of a traced pass, with the tracing overhead measured
/// against the untraced pass.
fn layer_values(untraced: &Pass, traced: &Pass) -> Result<Json, String> {
    let overhead = metrics::trace_overhead(untraced.value("read_rps"), traced.value("read_rps"));
    metric_values(&PER_LAYER, |name| match name {
        "trace.overhead_frac" => Some(overhead),
        _ => traced.values.get(name).copied(),
    })
}

/// Human-readable tables of one workload's passes.
fn print_tables(out: &mut dyn Write, p: &Prepared, untraced: &Pass, traced: Option<&Pass>) {
    let _ = writeln!(
        out,
        "== {} (seed {}) == attempted {}, failed {}, mismatches {}",
        p.workload.name(),
        p.seed,
        untraced.attempted,
        untraced.failed,
        untraced.mismatches,
    );
    let _ = writeln!(
        out,
        "{:<34} {:>14} {:<6} {:>8}",
        "end to end (untraced)", "value", "unit", "samples"
    );
    let mut row = |name: &str, unit: &str, n: f64| {
        let _ = writeln!(
            out,
            "{name:<34} {:>14.4} {unit:<6} {n:>8}",
            untraced.value(name)
        );
    };
    for def in &END_TO_END {
        let n = match def.name {
            "setup_s" => untraced.count("setups"),
            "peak_rss_mb" => 1.0,
            _ => untraced.count("read"),
        };
        row(def.name, def.unit, n);
    }
    // Shown for reading, not bounded: see END_TO_END.
    row("read_p50_ms", "ms", untraced.count("read"));
    row("read_p99_ms", "ms", untraced.count("read"));
    if untraced.count("patch") > 0.0 {
        row("catalog.patch_p50_ms", "ms", untraced.count("patch"));
        row("catalog.patch_p99_ms", "ms", untraced.count("patch"));
        row("catalog.visible_p50_ms", "ms", untraced.count("visible"));
    }
    if !stats::tail_supported(untraced.count("read") as usize, 0.99) {
        let _ = writeln!(out, "  read_p99_ms has fewer than ten samples beyond it");
    }
    if let Some(traced) = traced {
        let _ = writeln!(
            out,
            "{:<34} {:>14} {:<6}",
            "per layer (traced)", "value", "unit"
        );
        let overhead =
            metrics::trace_overhead(untraced.value("read_rps"), traced.value("read_rps"));
        for def in &PER_LAYER {
            let v = match def.name {
                "trace.overhead_frac" => overhead,
                name => traced.value(name),
            };
            let _ = writeln!(out, "{:<34} {v:>14.4} {:<6}", def.name, def.unit);
        }
        let wal = traced.count("wal_append") as usize;
        if wal > 0 && !stats::tail_supported(wal, 0.99) {
            let _ = writeln!(
                out,
                "  store.wal_append_us_p99 rests on {wal} appends (tail unsupported)"
            );
        }
    }
    for problem in std::iter::once(untraced)
        .chain(traced)
        .flat_map(|pass| &pass.problems)
    {
        let _ = writeln!(out, "  problem: {problem}");
    }
    let _ = writeln!(out, "fingerprints: {}", p.fingerprints.encode());
}

/// No workload has a failing operation, so a typed error or a transport
/// failure fails the run just as a wrong answer does.
fn correct(passes: &[&Pass]) -> bool {
    passes
        .iter()
        .all(|p| p.mismatches == 0.0 && p.failed == 0.0)
}

/// The single-workload form: one workload, one JSON line.
fn bench_main(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args)?;
    let p = prepare_workload(workload(&opts)?, required(&opts, "seed")?)?;
    let trace = flag(&opts, "trace")?;
    // A traced run splits the window between its untraced and traced
    // passes, so it takes as long as an untraced run.
    let window = seconds(&opts)? / if trace { 2 } else { 1 };
    let untraced = pass(&p, window, false)?;
    let traced_pass = trace.then(|| pass(&p, window, true)).transpose()?;
    print_tables(&mut std::io::stderr(), &p, &untraced, traced_pass.as_ref());

    let passes: Vec<&Pass> = std::iter::once(&untraced).chain(&traced_pass).collect();
    let metrics = match &traced_pass {
        None => end_to_end_values(&untraced)?,
        Some(t) => layer_values(&untraced, t)?,
    };
    let ok = correct(&passes);
    let line = Json::obj(vec![
        ("correct", Json::Bool(ok)),
        (
            "attempted",
            Json::Num(passes.iter().map(|p| p.attempted).sum()),
        ),
        ("failed", Json::Num(passes.iter().map(|p| p.failed).sum())),
        ("metrics", metrics),
    ]);
    println!("{}", line.encode());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Reads `HEAD`'s commit from `.git` in the working directory.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn map_json(map: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        map.iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// `icbench run`: every workload, untraced then traced.
fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let opts = options(args)?;
    let seed: u64 = required(&opts, "seed")?;
    let started = Instant::now();
    let mut docs = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let p = prepare_workload(w, seed)?;
        let untraced = pass(&p, RUN_SECONDS, false)?;
        let traced = pass(&p, RUN_TRACED_SECONDS, true)?;
        print_tables(&mut std::io::stdout(), &p, &untraced, Some(&traced));
        println!();
        let ok = correct(&[&untraced, &traced]);
        all_correct &= ok;
        let mut phases = BTreeMap::from([("prepare_s".to_string(), p.prepare_s)]);
        for (prefix, pass) in [("", &untraced), ("traced_", &traced)] {
            for (k, v) in &pass.phases {
                phases.insert(format!("{prefix}{k}"), *v);
            }
        }
        docs.push(Json::obj(vec![
            ("name", Json::Str(w.name().into())),
            ("correct", Json::Bool(ok)),
            (
                "attempted",
                Json::Num(untraced.attempted + traced.attempted),
            ),
            ("failed", Json::Num(untraced.failed + traced.failed)),
            ("end_to_end", end_to_end_values(&untraced)?),
            ("per_layer", layer_values(&untraced, &traced)?),
            ("samples", map_json(&untraced.samples)),
            ("fingerprints", p.fingerprints.clone()),
            ("phases", map_json(&phases)),
        ]));
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = Json::obj(vec![
        ("tool", Json::Str("icbench".into())),
        ("seed", Json::Num(seed as f64)),
        ("git_rev", Json::Str(git_rev())),
        ("cores", Json::Num(cores as f64)),
        ("seconds", Json::Num(RUN_SECONDS.as_secs_f64())),
        (
            "traced_seconds",
            Json::Num(RUN_TRACED_SECONDS.as_secs_f64()),
        ),
        ("warmup_s", Json::Num(WARMUP.as_secs_f64())),
        ("total_s", Json::Num(started.elapsed().as_secs_f64())),
        ("workloads", Json::Arr(docs)),
    ]);
    let line = doc.encode();
    if let Some(out) = opts.get("out") {
        append_line(Path::new(out), &line)?;
    }
    println!("{line}");
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"))
        .map_err(|e| format!("appending to {}: {e}", path.display()))
}

/// `icbench compare <base> <new>`: exits 1 when a metric regressed.
fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err(USAGE.into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| compare::read_runs(&text))
    };
    let (table, regressed) = compare::report(&load(base)?, &load(new)?);
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
