//! Pieces shared by the workloads.

use crate::report::Outcome;
use crate::stats;
use crate::trace;
use quetzal::uarch::RunStats;
use quetzal::PoolStats;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Set-up-only processes started before the measuring one. Each times
/// one cold set-up, as a user pays it once per process (lazy
/// initialisation included); `setup_s` is the median over these and
/// the measuring process's own set-up.
pub const SETUP_PROCESSES: usize = 8;

/// Seed of every set-up's warm-up input. It is fixed, not the run's
/// seed, so that set-up does the same work in every run.
pub const WARM_SEED: u64 = 0x3A7E;

/// Fewest passes over a workload's operations per run: the best time
/// of an operation is taken over at least this many repeats.
pub const MIN_PASSES: usize = 2;

/// Percentile of the reported latency tail.
pub const TAIL_PERCENTILE: f64 = 75.0;

/// What one workload run is asked to do.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Scratch directory inside the checkout.
    pub work_dir: PathBuf,
    /// Time the set-up and stop (a set-up-only process).
    pub setup_only: bool,
    /// Set-up seconds measured by the set-up-only processes.
    pub setup_times: Vec<f64>,
}

/// Runs `setup` once, the first set-up of this process, and returns its
/// result with the median of its duration and `ctx.setup_times`.
pub fn timed_setup<T>(ctx: &Ctx, setup: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let value = setup();
    let mut times = ctx.setup_times.clone();
    times.push(t0.elapsed().as_secs_f64());
    log_times("set-up", &times);
    (stats::median(&times), value)
}

/// Prints durations (given in seconds) on stderr, in ms.
pub fn log_times(what: &str, times: &[f64]) {
    eprintln!(
        "qzperf: {what} times (ms): {:?}",
        times
            .iter()
            .map(|t| (t * 1e6).round() / 1e3)
            .collect::<Vec<_>>()
    );
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fastest observed time of each distinct operation of a run.
///
/// Every workload repeats a fixed, seeded set of operations for the
/// measured time. On a shared host the same operation can take twice
/// as long while a neighbour is busy, so the latency figures are taken
/// over each operation's fastest repeat: the cost the program itself
/// imposes, with as little of the neighbours' load as the run saw.
pub struct BestTimes(Mutex<Vec<f64>>);

impl BestTimes {
    /// `ops` distinct operations, none timed yet.
    pub fn new(ops: usize) -> BestTimes {
        BestTimes(Mutex::new(vec![f64::INFINITY; ops]))
    }

    /// Records one repeat of operation `op` that took `ms`.
    pub fn record(&self, op: usize, ms: f64) {
        let mut best = self.0.lock().unwrap_or_else(|e| e.into_inner());
        best[op] = best[op].min(ms);
    }

    /// The best time, in ms, of every operation that ran.
    pub fn take(&self) -> Vec<f64> {
        let best = std::mem::take(&mut *self.0.lock().unwrap_or_else(|e| e.into_inner()));
        best.into_iter().filter(|t| t.is_finite()).collect()
    }
}

/// Runs one work item under a `batch.item` span, split into
/// `algos.prep` (entry to the item's first program build: staging, host
/// sizing, build) and `uarch.exec` (the rest). Returns the result and
/// when the item started.
pub fn run_item<R>(f: impl FnOnce() -> R) -> (R, Instant) {
    let span = trace::enter("batch.item", 0);
    let start = Instant::now();
    trace::item_started();
    let result = f();
    let end = Instant::now();
    let built = trace::first_build().map_or(end, |t| t.clamp(start, end));
    span.child("algos.prep", start, built);
    span.child("uarch.exec", built, end);
    (result, start)
}

/// Fills the end-to-end metrics. `best_ms` holds the best time of each
/// distinct operation (see [`BestTimes`]).
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    sim_mips: f64,
    best_ms: &[f64],
    peak_rss_mb: f64,
) {
    out.values.insert("setup_s", setup_s);
    out.values.insert("ops_per_s", out.ops_per_s);
    out.values.insert("sim_mips", sim_mips);
    for (name, p) in [("lat_p50_ms", 50.0), ("lat_p75_ms", TAIL_PERCENTILE)] {
        match stats::percentile(best_ms, p) {
            Some(v) => {
                out.values.insert(name, v);
            }
            None => out.problem(format!(
                "{name}: {} distinct operations leave fewer than {} beyond p{p}",
                best_ms.len(),
                stats::MIN_BEYOND
            )),
        }
    }
    out.values.insert("peak_rss_mb", peak_rss_mb);
}

/// Fills `pool.built` and `pool.quarantined`: machines built and
/// quarantined between two snapshots of a pool.
pub fn pool_counts(out: &mut Outcome, before: PoolStats, after: PoolStats) {
    out.values
        .insert("pool.built", (after.built - before.built) as f64);
    out.values.insert(
        "pool.quarantined",
        after.quarantined.saturating_sub(before.quarantined) as f64,
    );
}

/// Fills the exact simulated counts (`sim.*`).
pub fn sim_counts(out: &mut Outcome, s: &RunStats) {
    let counts = [
        ("sim.cycles", s.cycles),
        ("sim.instructions", s.instructions),
        ("sim.mem_requests", s.mem_requests),
        ("sim.dram_bytes", s.dram_bytes),
        ("sim.indexed_ops", s.indexed_ops),
        ("sim.qz_accesses", s.qz_accesses),
        ("sim.mispredicts", s.mispredicts),
        ("sim.stall.base", s.stall_cycles[0]),
        ("sim.stall.frontend", s.stall_cycles[1]),
        ("sim.stall.scalar_compute", s.stall_cycles[2]),
        ("sim.stall.vector_compute", s.stall_cycles[3]),
        ("sim.stall.memory", s.stall_cycles[4]),
        ("sim.stall.quetzal", s.stall_cycles[5]),
    ];
    for (name, v) in counts {
        out.values.insert(name, v as f64);
    }
}

/// Fills the per-layer metrics every traced run derives from its spans
/// and build counts: span self times by layer, the audit against
/// `audit_wall_s` (the measured wall time summed over concurrent
/// loops), and the trace bookkeeping figures.
pub fn span_metrics(out: &mut Outcome, audit_wall_s: f64) {
    let spans = trace::spans();
    let by_name = trace::self_seconds_by_name(&spans);
    let sum = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| by_name.get(n))
            .fold(0.0, |a, b| a + b)
    };
    out.values
        .insert("genomics.parse_s", sum(&["genomics.parse"]));
    out.values.insert("algos.prep_s", sum(&["algos.prep"]));
    out.values.insert("uarch.exec_s", sum(&["uarch.exec"]));
    out.values
        .insert("batch.self_s", sum(&["batch.run", "batch.item"]));
    out.values.insert("ingest.self_s", sum(&["ingest.run"]));
    out.values
        .insert("ingest.concat_s", sum(&["ingest.concat"]));
    out.values.insert(
        "trace.unattributed_s",
        sum(&["bench.rep", "bench.pass", "bench.conn"]),
    );
    out.values.insert("trace.spans", spans.len() as f64);
    let (built, distinct) = trace::build_counts();
    out.values.insert("isa.programs_built", built as f64);
    out.values.insert("isa.distinct_images", distinct as f64);
    let gap = trace::audit_gap(&spans, audit_wall_s);
    out.values.insert("trace.audit_gap_frac", gap);
    if gap > trace::AUDIT_SLACK {
        out.problem(format!(
            "self-time audit: span self times miss the measured wall time by {:.2}% (slack {:.0}%)",
            gap * 100.0,
            trace::AUDIT_SLACK * 100.0
        ));
    }
}
