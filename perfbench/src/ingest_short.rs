//! `ingest_short`: the Fig. 14b screen-then-align pipeline over a
//! short-read pair file, streamed through crash-safe ingestion.
//!
//! Input: interleaved `100bp_1` / `250bp_1` pairs, written to a pair
//! file before timing. Per pair, SneakySnake screens at its dataset's
//! `Workload::ss_threshold` and WFA aligns the pairs that pass, both at
//! `Tier::QuetzalC`, on the functional engine with one worker. One
//! repetition is `quetzal::ingest::run_ingest` (default shard and chunk
//! sizes, heartbeats off, a fresh checkpoint directory) followed by
//! `concat_to_path`; repetitions run back to back for the measured
//! time over one long-lived machine pool.
//!
//! Gate: every item of every final report must carry the value the
//! host references give (`ss_filter`, then `wfa_edit_align` for pairs
//! that pass), and every repetition's report must be byte-identical.

use crate::common::{self, BestTimes, Ctx};
use crate::report::Outcome;
use crate::trace;
use quetzal::ingest::{self, pair_digest, IngestConfig, ItemOutput};
use quetzal::uarch::RunStats;
use quetzal::{BatchRunner, ExecMode, Machine, MachineConfig, MachinePool, SimError};
use quetzal_algos::sneakysnake::ss_filter;
use quetzal_algos::wfa::wfa_edit_align;
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo, Workload};
use quetzal_genomics::dataset::{DatasetSpec, SeqPair};
use quetzal_genomics::fasta::PairReader;
use quetzal_genomics::Alphabet;
use quetzal_trace::json::Value;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Pairs per input file (half `100bp_1`, half `250bp_1`).
const PAIRS: usize = 4096;
/// Distinct operations (pairs) a run times.
pub const DISTINCT_OPS: usize = PAIRS;

/// SneakySnake thresholds of the two datasets, by read length.
#[derive(Clone, Copy)]
struct Thresholds {
    short_len: usize,
    short: u32,
    long: u32,
}

impl Thresholds {
    fn new() -> Thresholds {
        let rule = |spec: DatasetSpec| {
            Workload {
                spec,
                pairs: Vec::new(),
            }
            .ss_threshold()
        };
        Thresholds {
            short_len: DatasetSpec::d100().read_len,
            short: rule(DatasetSpec::d100()),
            long: rule(DatasetSpec::d250()),
        }
    }

    fn of(&self, pair: &SeqPair) -> u32 {
        if pair.pattern.len() <= self.short_len {
            self.short
        } else {
            self.long
        }
    }

    /// The pipeline's expected item value from the host references:
    /// the WFA score of a pair that passes the screen, otherwise
    /// `-1 - bound`.
    fn reference(&self, pair: &SeqPair) -> i64 {
        let (p, t) = (pair.pattern.as_bytes(), pair.text.as_bytes());
        let verdict = ss_filter(p, t, self.of(pair));
        if verdict.accepted {
            i64::from(wfa_edit_align(p, t).score)
        } else {
            -1 - i64::from(verdict.bound)
        }
    }
}

/// One item of the pipeline: screen, then align if the pair passes.
fn pipeline(m: &mut Machine, pair: &SeqPair, th: Thresholds) -> Result<(i64, RunStats), SimError> {
    let threshold = th.of(pair);
    let ss =
        try_simulate_pair_outcome(m, Algo::Ss, Alphabet::Dna, threshold, pair, Tier::QuetzalC)?;
    if ss.value > i64::from(threshold) {
        return Ok((-1 - ss.value, ss.stats));
    }
    let wfa =
        try_simulate_pair_outcome(m, Algo::Wfa, Alphabet::Dna, threshold, pair, Tier::QuetzalC)?;
    let mut stats = ss.stats;
    stats.merge(&wfa.stats);
    Ok((wfa.value, stats))
}

/// The pair reader with a `genomics.parse` span around every pull.
struct TracedSource<I>(I);

impl<I: Iterator> Iterator for TracedSource<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let _span = trace::enter("genomics.parse", 0);
        self.0.next()
    }
}

fn write_pairs(path: &Path, seed: u64) -> std::io::Result<Vec<SeqPair>> {
    let (short, long) = (DatasetSpec::d100(), DatasetSpec::d250());
    let pairs: Vec<SeqPair> = short
        .pair_stream(seed)
        .zip(long.pair_stream(seed))
        .flat_map(|(a, b)| [a, b])
        .take(PAIRS)
        .collect();
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for p in &pairs {
        writeln!(w, "{}\t{}", p.pattern, p.text)?;
    }
    w.flush()?;
    Ok(pairs)
}

fn bytes_under(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.file_type() {
                    Ok(t) if t.is_dir() => bytes_under(&e.path()),
                    _ => e.metadata().map_or(0, |m| m.len()),
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Checks one final report against the references; returns the number
/// of items whose line is missing or wrong.
fn check_report(report: &str, expected: &[i64]) -> u64 {
    let mut bad = 0u64;
    let mut lines = report.lines();
    for (i, &want) in expected.iter().enumerate() {
        let ok = lines
            .next()
            .and_then(|l| Value::parse(l).ok())
            .is_some_and(|v| {
                v.get("cause").is_none()
                    && v.get("item").and_then(Value::as_u64) == Some(i as u64)
                    && v.get("value").and_then(Value::as_i64) == Some(want)
            });
        if !ok {
            bad += 1;
        }
    }
    bad + lines.count() as u64
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.work_dir.join("ingest_short");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the work directory");
    let input = dir.join("pairs.tsv");
    let pairs = write_pairs(&input, ctx.seed).expect("writing the pair file");
    let th = Thresholds::new();
    let expected: Vec<i64> = pairs.iter().map(|p| th.reference(p)).collect();
    let passing = expected.iter().filter(|&&v| v >= 0).count();
    eprintln!(
        "qzperf: ingest_short: {} pairs, {passing} pass the screen",
        pairs.len()
    );

    let runner = BatchRunner::new(1).with_exec_mode(ExecMode::Functional);
    let warm = &DatasetSpec::d100().generate_n(common::WARM_SEED, 1);
    let (setup_s, pool) = common::timed_setup(ctx, || {
        let pool = MachinePool::new(&MachineConfig::default(), ExecMode::Functional);
        let report = runner
            .run_machines_report_pooled(&pool, warm, |m, _, p| pipeline(m, p, th))
            .expect("warm-up item");
        assert!(report.is_clean(), "warm-up item failed");
        pool
    });
    if ctx.setup_only {
        out.values.insert("setup_s", setup_s);
        return out;
    }

    let best = BestTimes::new(DISTINCT_OPS);
    let first_rep_stats = Mutex::new(RunStats::default());
    let pool_before = pool.stats();
    let (mut rep_walls, mut instructions, mut shards, mut written) = (Vec::new(), 0u64, 0u64, 0u64);
    // Per repetition: wall time minus its items' time (parsing,
    // checkpoints, the final report).
    let mut rep_overheads = Vec::new();
    let item_ns = AtomicU64::new(0);
    let mut reference_report: Option<String> = None;
    let mut rep = 0u64;
    while rep_walls.iter().sum::<f64>() < ctx.seconds || rep_walls.len() < common::MIN_PASSES {
        let rep_dir = dir.join(format!("rep{rep}"));
        let ckpt = rep_dir.join("ckpt");
        let report_path = rep_dir.join("report.jsonl");
        let collect_stats = ctx.trace && rep == 0;
        trace::set_counting(true);
        item_ns.store(0, Ordering::Relaxed);
        let t0 = Instant::now();
        let result = {
            let _root = trace::enter("bench.rep", rep + 1);
            let file = std::fs::File::open(&input).expect("opening the pair file");
            let source = TracedSource(PairReader::new(BufReader::new(file), Alphabet::Dna));
            let config = IngestConfig {
                heartbeat: None,
                ..IngestConfig::new(&ckpt)
            };
            let summary = {
                let _span = trace::enter("ingest.run", 0);
                ingest::run_ingest(
                    &config,
                    &runner,
                    &pool,
                    source,
                    pair_digest,
                    |m, item, pair| {
                        let (result, start) = common::run_item(|| pipeline(m, pair, th));
                        let took = start.elapsed();
                        best.record(item as usize, took.as_secs_f64() * 1e3);
                        item_ns.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
                        let (value, stats) = result?;
                        if collect_stats {
                            first_rep_stats
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .merge(&stats);
                        }
                        Ok(ItemOutput {
                            value,
                            cycles: stats.cycles,
                            instructions: stats.instructions,
                        })
                    },
                    |_| {},
                )
            };
            summary.and_then(|summary| {
                let _span = trace::enter("ingest.concat", 0);
                ingest::concat_to_path(&ckpt, summary.shards, &report_path).map(|_| summary)
            })
        };
        let wall = t0.elapsed().as_secs_f64();
        rep_walls.push(wall);
        rep_overheads.push(wall - item_ns.load(Ordering::Relaxed) as f64 * 1e-9);
        trace::set_counting(false);
        out.attempted += PAIRS as u64;
        let summary = match result {
            Ok(s) => s,
            Err(e) => {
                out.failed += PAIRS as u64;
                out.problem(format!("repetition {rep}: {e}"));
                break;
            }
        };
        instructions = summary.instructions;
        shards += summary.shards;
        written += bytes_under(&rep_dir);
        let report = std::fs::read_to_string(&report_path).unwrap_or_default();
        match &reference_report {
            None => {
                out.failed += check_report(&report, &expected);
                reference_report = Some(report);
            }
            Some(first) if *first != report => {
                out.failed += check_report(&report, &expected).max(1);
            }
            Some(_) => {}
        }
        let _ = std::fs::remove_dir_all(&rep_dir);
        rep += 1;
    }
    let peak = common::peak_rss_mb();
    let _ = std::fs::remove_dir_all(&dir);
    // Throughput over one repetition (checkpoints and the final report
    // included) with every pair at its best time and the repetition's
    // own work at its fastest repetition.
    let best_ms = best.take();
    let overhead_s = rep_overheads.iter().copied().fold(f64::INFINITY, f64::min);
    let rep_s = best_ms.iter().sum::<f64>() * 1e-3 + overhead_s;
    out.ops_per_s = PAIRS as f64 / rep_s;
    if !ctx.trace {
        let sim_mips = instructions as f64 / rep_s / 1e6;
        common::end_to_end(&mut out, setup_s, sim_mips, &best_ms, peak);
        return out;
    }
    common::span_metrics(&mut out, rep_walls.iter().sum());
    common::pool_counts(&mut out, pool_before, pool.stats());
    out.values.insert("ingest.shards", shards as f64);
    out.values.insert("ingest.bytes_written", written as f64);
    common::sim_counts(
        &mut out,
        &first_rep_stats
            .into_inner()
            .unwrap_or_else(|e| e.into_inner()),
    );
    out
}
