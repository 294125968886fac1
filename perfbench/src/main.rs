//! `qzperf` — the repository benchmark.
//!
//! ```text
//! qzperf --workload NAME --seed N --seconds S --trace 0|1
//! qzperf spread --workload NAME --runs K [--first-seed N] [--seconds S]
//! ```
//!
//! Workloads: `ingest_short`, `served_mixed` (see their
//! modules). Each run generates its inputs from `--seed`, measures for
//! at least `--seconds`, checks every output, and prints as its last
//! stdout line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. It exits non-zero when any
//! correctness gate fails.
//!
//! The measuring process runs under a fixed environment: the glibc
//! malloc settings `scripts/ci.sh` exports, `RUST_BACKTRACE` unset and
//! every `QUETZAL_*` variable removed. The invoked process only pins
//! that environment and starts the children. An untraced run starts
//! [`common::SETUP_PROCESSES`] set-up-only children, each timing one
//! cold set-up, then the measuring child, which reports the median
//! set-up time over all of them. A traced run starts an untraced child
//! (the overhead baseline) and the traced one, because the
//! program-build observer the tracer installs is process-global.
//!
//! `spread` runs a workload `--runs` times with consecutive seeds and
//! prints each end-to-end metric's median and interquartile spread.

mod common;
mod ingest_short;
mod report;
mod served_mixed;
mod stats;
mod trace;

use common::Ctx;
use quetzal_trace::json::Value;
use report::Outcome;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["ingest_short", "served_mixed"];

/// The measuring child's environment: glibc malloc settings (kept in
/// step with `scripts/ci.sh`).
const MALLOC_ENV: [(&str, &str); 3] = [
    ("MALLOC_TRIM_THRESHOLD_", "-1"),
    ("MALLOC_MMAP_THRESHOLD_", "1073741824"),
    ("MALLOC_TOP_PAD_", "134217728"),
];
/// Marks the measuring child.
const CHILD_ENV: &str = "QZPERF_CHILD";
/// Default work directory (the benchmark's build directory).
const WORK_DIR: &str = ".bench_build/qzperf-work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline_ops_per_s: Option<f64>,
    setup_only: bool,
    setup_times: Vec<f64>,
    runs: usize,
}

fn fail(msg: &str) -> ! {
    eprintln!("qzperf: {msg}");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        baseline_ops_per_s: None,
        setup_only: false,
        setup_times: Vec::new(),
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> T {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("{flag}: '{v}' is not a valid number")))
        }
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" | "--first-seed" => a.seed = num(flag, value()),
            "--seconds" => a.seconds = num(flag, value()),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--baseline-ops-per-s" => a.baseline_ops_per_s = Some(num(flag, value())),
            "--setup-only" => a.setup_only = true,
            "--setup-times" => {
                a.setup_times = value().split(',').map(|t| num(flag, t.to_string())).collect()
            }
            "--runs" => a.runs = num(flag, value()),
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        fail(&format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        fail("--seconds must be in (0, 60]");
    }
    a
}

/// Starts a child under the pinned environment with `extra` arguments
/// and returns its exit success and last stdout line.
fn run_child(a: &Args, trace: bool, extra: &[String]) -> (bool, String) {
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("own path: {e}")));
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        &a.workload,
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &a.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    cmd.args(extra);
    for (k, _) in std::env::vars() {
        if k.starts_with("QUETZAL_") || k.starts_with("MALLOC_") || k == "RUST_BACKTRACE" {
            cmd.env_remove(k);
        }
    }
    cmd.envs(MALLOC_ENV).env(CHILD_ENV, "1");
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let output = cmd
        .output()
        .unwrap_or_else(|e| fail(&format!("starting the measuring process: {e}")));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    (output.status.success(), last)
}

fn field_f64(line: &str, path: &[&str]) -> Option<f64> {
    let v = Value::parse(line).ok()?;
    path.iter()
        .try_fold(&v, |cur, key| cur.get(key))
        .and_then(Value::as_f64)
}

/// An untraced run: the set-up-only children, then the measuring child
/// given their set-up times. Returns its exit success and result line
/// (empty when a set-up child failed).
fn run_untraced(a: &Args) -> (bool, String) {
    let mut times = Vec::with_capacity(common::SETUP_PROCESSES);
    for _ in 0..common::SETUP_PROCESSES {
        let (ok, line) = run_child(a, false, &["--setup-only".to_string()]);
        match line.trim().parse::<f64>() {
            Ok(t) if ok => times.push(t.to_string()),
            _ => {
                eprintln!("qzperf: a set-up process failed");
                return (false, String::new());
            }
        }
    }
    run_child(a, false, &["--setup-times".to_string(), times.join(",")])
}

/// The invoked process: pins the environment, runs the children,
/// forwards the result line.
fn orchestrate(a: &Args) -> ExitCode {
    let (ok, line) = if a.trace {
        let (base_ok, base) = run_child(a, false, &[]);
        let Some(baseline) = field_f64(&base, &["metrics", "ops_per_s", "value"]) else {
            eprintln!("qzperf: the untraced baseline run produced no result");
            return ExitCode::FAILURE;
        };
        let baseline = ["--baseline-ops-per-s".to_string(), baseline.to_string()];
        let (ok, line) = run_child(a, true, &baseline);
        (ok && base_ok, line)
    } else {
        run_untraced(a)
    };
    if line.is_empty() {
        eprintln!("qzperf: the measuring process produced no result");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The measuring child.
fn measure(a: &Args) -> ExitCode {
    for (k, v) in MALLOC_ENV {
        if std::env::var(k).as_deref() != Ok(v) {
            fail(&format!("environment not pinned: {k}"));
        }
    }
    eprintln!(
        "qzperf: {} seed {} seconds {} trace {} | env {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        MALLOC_ENV
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let work_dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work_dir)
        .unwrap_or_else(|e| fail(&format!("creating {WORK_DIR}: {e}")));
    if a.trace {
        trace::enable();
    }
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        work_dir: work_dir.clone(),
        setup_only: a.setup_only,
        setup_times: a.setup_times.clone(),
    };
    let t0 = std::time::Instant::now();
    let mut outcome: Outcome = match a.workload.as_str() {
        "ingest_short" => ingest_short::run(&ctx),
        _ => served_mixed::run(&ctx),
    };
    if a.setup_only {
        println!("{}", outcome.values["setup_s"]);
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "qzperf: attempted {} failed {} in {:.1} s",
        outcome.attempted,
        outcome.failed,
        t0.elapsed().as_secs_f64()
    );
    let catalogue = if a.trace {
        if let Some(base) = a.baseline_ops_per_s {
            if outcome.ops_per_s > 0.0 {
                let overhead = base / outcome.ops_per_s - 1.0;
                outcome.values.insert("trace.overhead_frac", overhead);
            }
        }
        let spans = trace::spans();
        let path = work_dir.join(format!("trace-{}.tsv", a.workload));
        let header = format!(
            "workload {} seed {} seconds {}",
            a.workload, a.seed, a.seconds
        );
        if let Err(e) = trace::write_tsv(&path, &header, &spans) {
            eprintln!("qzperf: writing {}: {e}", path.display());
        }
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    match report::render(&outcome, catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("qzperf: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `spread`: repeated runs over consecutive seeds, summarised.
fn spread(a: &Args) -> ExitCode {
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); report::END_TO_END.len()];
    let mut all_ok = true;
    for i in 0..a.runs {
        let run = Args {
            workload: a.workload.clone(),
            seed: a.seed + i as u64,
            seconds: a.seconds,
            trace: false,
            baseline_ops_per_s: None,
            setup_only: false,
            setup_times: Vec::new(),
            runs: 1,
        };
        let (ok, line) = run_untraced(&run);
        all_ok &= ok;
        println!("seed {}: {line}", run.seed);
        for (slot, (name, _)) in values.iter_mut().zip(report::END_TO_END) {
            if let Some(v) = field_f64(&line, &["metrics", name, "value"]) {
                slot.push(v);
            }
        }
    }
    for (vals, (name, unit)) in values.iter().zip(report::END_TO_END) {
        if vals.len() >= 2 {
            println!(
                "{:<12} median {:>12.4} {unit:<8} spread {:>6.2}%  (n={})",
                name,
                stats::median(vals),
                stats::relative_spread(vals) * 100.0,
                vals.len()
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("spread") {
        return spread(&parse_args(&argv[1..]));
    }
    let args = parse_args(&argv);
    if std::env::var(CHILD_ENV).as_deref() == Ok("1") {
        measure(&args)
    } else {
        orchestrate(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_settings_match_the_ci_script() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../scripts/ci.sh");
        let script = std::fs::read_to_string(path).expect("scripts/ci.sh");
        for (k, v) in MALLOC_ENV {
            assert!(
                script.contains(&format!("export {k}={v}")),
                "scripts/ci.sh no longer exports {k}={v}"
            );
        }
    }

    #[test]
    fn every_workload_has_enough_distinct_operations_for_its_tail() {
        let need = stats::min_samples_for(common::TAIL_PERCENTILE);
        for (name, ops) in [
            ("ingest_short", ingest_short::DISTINCT_OPS),
            ("served_mixed", served_mixed::DISTINCT_OPS),
        ] {
            assert!(
                ops >= need,
                "{name}: {ops} distinct operations, p75 needs {need}"
            );
        }
    }
}
